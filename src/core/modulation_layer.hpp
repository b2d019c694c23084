/**
 * @file
 * The optical element every DONN layer kind is built from: a free-space
 * hop followed by a per-unit complex modulation,
 *
 *   U_out = gamma * U_diffracted * M * exp(j * eps),
 *
 * with gamma the regularization factor of Section 3.2 and exp(j * eps)
 * the phase screen of an attached misalignment realization. The kinds
 * differ only in how M is parametrized: a trained phase (DiffractiveLayer),
 * a Gumbel-softmax choice among device states (CodesignLayer), or a frozen
 * table (FixedModulationLayer, the deployed model). ModulationLayer runs
 * the three passes; a kind supplies its table, its training modulation and
 * its parameter gradient.
 */
#pragma once

#include <memory>
#include <vector>

#include "core/layer.hpp"
#include "optics/propagator.hpp"
#include "utils/sync.hpp"

namespace lightridge {

/** A published modulation M and the parameters it was built from. */
struct ModulationTable
{
    Field table;
    std::vector<Real> params; ///< bitwise snapshot of tableParams()
};

/** Hop, then U * gamma * M: the body of every optical layer kind. */
class ModulationLayer : public Layer
{
  public:
    void forwardInPlace(Field &u, PropagationWorkspace &workspace) final;
    void backwardInPlace(Field &g, PropagationWorkspace &workspace) final;
    void inferInPlace(Field &u,
                      PropagationWorkspace &workspace) const final;
    void setPerturbation(const LayerPerturbation *perturbation) final
    {
        perturb_ = perturbation;
    }

    /** Regularization factor gamma applied to the amplitude. */
    Real gamma() const { return gamma_; }
    void setGamma(Real gamma) { gamma_ = gamma; }

    const Propagator &propagator() const { return *propagator_; }

    /** Number of diffraction units per side. */
    std::size_t sideLength() const { return propagator_->config().grid.n; }

  protected:
    using TablePtr = std::shared_ptr<const ModulationTable>;

    ModulationLayer(std::shared_ptr<const Propagator> propagator, Real gamma);

    /** A given table, never rebuilt (the deployed model); gamma is 1. */
    ModulationLayer(std::shared_ptr<const Propagator> propagator, Field table);

    /** Shares the published table, which neither side then rebuilds in
     *  place; the activation cache starts empty and the copy detached. */
    ModulationLayer(const ModulationLayer &other);

    /** The parameters the table encodes (empty for a given table). */
    virtual const std::vector<Real> &tableParams() const = 0;

    /** Fill the n-by-n `table` with M from the current parameters. */
    virtual void buildTable(Field &table) const { (void)table; }

    /**
     * M of a training pass: the published table unless overridden, kept
     * alive by `hold`. `sample` is true on forward; backward must see the
     * forward's M.
     */
    virtual const Field &trainingModulation(bool sample, TablePtr &hold);

    /** Accumulate parameter gradients from dL/d(out) `g`, given the
     *  training modulation `m`. */
    virtual void accumulateGrad(const Field &g, const Field &m)
    {
        (void)g;
        (void)m;
    }

    /**
     * The table for the current parameters, rebuilt under the mutex only
     * when they differ bitwise from its snapshot (once per weight update,
     * safe for concurrent readers). The rebuild reuses the storage unless
     * a reader or a copy holds it, so a steady-state train step allocates
     * no Field.
     */
    TablePtr table() const LIGHTRIDGE_EXCLUDES(table_mutex_);

    /** The hop output cached by the last forward. */
    const Field &diffracted() const { return diffracted_; }

    const LayerPerturbation *perturbation() const { return perturb_; }

  private:
    /** `out` = gamma * `in` * `m` (* screen); `in` may alias `out`. */
    void modulate(const Field &in, const Field &m, Field &out) const;

    /** The published table, marked shared; for the copy constructor. */
    std::shared_ptr<ModulationTable> shareTable() const
        LIGHTRIDGE_EXCLUDES(table_mutex_);

    std::shared_ptr<const Propagator> propagator_;
    Real gamma_;

    mutable Mutex table_mutex_;
    mutable std::shared_ptr<ModulationTable> table_
        LIGHTRIDGE_GUARDED_BY(table_mutex_);
    /** table_ is, or was, also held by a copy of this layer. */
    mutable bool table_shared_ LIGHTRIDGE_GUARDED_BY(table_mutex_) = false;

    Field diffracted_; ///< training activation cache

    // Attached misalignment realization (externally owned; see
    // Layer::setPerturbation).
    const LayerPerturbation *perturb_ = nullptr;
};

/**
 * Frozen modulation of a deployed (hardware) model: the table holds the
 * device states with gamma and fabrication variation folded in, so gamma
 * stays 1 and is not saved, and nothing trains. Like every layer it
 * honours an attached perturbation, and backwardInPlace() follows a
 * forwardInPlace().
 */
class FixedModulationLayer : public ModulationLayer
{
  public:
    FixedModulationLayer(std::shared_ptr<const Propagator> propagator,
                         Field modulation);

    std::string kind() const override { return "fixed"; }
    void setGamma(Real gamma) = delete; ///< the table holds gamma
    LayerPtr clone() const override
    {
        return std::make_unique<FixedModulationLayer>(*this);
    }
    Json toJson() const override;

    /** The frozen table (never rebuilt, so the reference stays valid). */
    const Field &modulation() const { return table()->table; }

  protected:
    const std::vector<Real> &tableParams() const override;
};

} // namespace lightridge
