/**
 * @file
 * Raw diffractive layer: free-space hop + trainable phase modulation.
 *
 * This is lr.layers.diffractlayer_raw of the paper: the field first
 * diffracts over the configured distance (Eqs. 5-7), then each diffraction
 * unit applies its trainable phase phi and the complex-valued
 * regularization factor gamma (Section 3.2):
 *
 *   U_out = gamma * U_diffracted * exp(j * phi)
 */
#pragma once

#include <memory>

#include "core/layer.hpp"
#include "optics/propagator.hpp"
#include "utils/sync.hpp"

namespace lightridge {

/** Trainable phase-modulation layer preceded by a free-space hop. */
class DiffractiveLayer : public Layer
{
  public:
    /**
     * @param propagator shared pre-hop free-space operator
     * @param gamma amplitude regularization factor (1.0 = off)
     * @param rng optional source for small random phase init
     */
    DiffractiveLayer(std::shared_ptr<const Propagator> propagator,
                     Real gamma = 1.0, Rng *rng = nullptr);

    /**
     * Copy carries the phases, their gradients and the (immutable)
     * published infer-modulation table; the training modulation table
     * and activation caches start empty and fill on first use.
     */
    DiffractiveLayer(const DiffractiveLayer &other);

    std::string kind() const override { return "diffractive"; }

    void forwardInPlace(Field &u, PropagationWorkspace &workspace) override;
    void backwardInPlace(Field &g, PropagationWorkspace &workspace) override;
    void inferInPlace(Field &u,
                      PropagationWorkspace &workspace) const override;
    void setPerturbation(const LayerPerturbation *perturbation) override
    {
        perturb_ = perturbation;
    }
    LayerPtr clone() const override;
    std::vector<ParamView> params() override;
    Json toJson() const override;

    /** Trainable per-unit phase values [rad]. */
    const RealMap &phase() const { return phase_; }
    RealMap &phase() { return phase_; }

    /** Regularization factor gamma applied to the amplitude. */
    Real gamma() const { return gamma_; }
    void setGamma(Real gamma) { gamma_ = gamma; }

    const Propagator &propagator() const { return *propagator_; }

    /** Restore phases from serialized form. */
    static std::unique_ptr<DiffractiveLayer>
    fromJson(const Json &j, std::shared_ptr<const Propagator> propagator);

  private:
    /**
     * Rebuild the cached modulation table exp(j*phi) if the phase mask
     * changed since it was built (bitwise snapshot compare). Evaluating
     * sincos over the full mask per sample dominated the train step;
     * with the cache it runs once per optimizer step. Values are the
     * exact std::polar results the uncached loops produced, so training
     * stays bitwise-identical; backward uses their conjugates, which
     * equal std::polar(1, -phi) bit for bit (sin is odd, cos even).
     * Training-path only: inferInPlace() reads the mutex-guarded
     * inferModulation() table instead, so it stays safe for concurrent
     * use of a shared instance.
     */
    void ensureModulation();

    /** Immutable published exp(j*phi) table + the phases it encodes. */
    struct InferModulation
    {
        Field table;
        RealMap phase;
    };

    /**
     * Thread-safe shared-instance modulation cache for the inference
     * path: returns an immutable exp(j*phi) table matching the current
     * phase mask, rebuilding (under a mutex) only when the mask changed
     * since the last publish. Values are the exact std::polar results
     * the uncached loop produced, so inference stays bitwise-identical —
     * but the sincos sweep now runs once per weight update instead of
     * once per request per worker, which is what lets one shared
     * DonnModel instance serve every engine worker without cloning.
     */
    std::shared_ptr<const InferModulation> inferModulation() const
        LIGHTRIDGE_EXCLUDES(infer_cache_mutex_);

    /** Currently published table (no rebuild); for the copy constructor,
     *  which shares the immutable snapshot across instances. */
    std::shared_ptr<const InferModulation> publishedModulation() const
        LIGHTRIDGE_EXCLUDES(infer_cache_mutex_);

    std::shared_ptr<const Propagator> propagator_;
    Real gamma_;
    RealMap phase_;
    RealMap phase_grad_;

    // Modulation cache (training only; see ensureModulation()).
    Field modulation_;
    RealMap modulation_phase_; ///< snapshot the table was built from

    // Shared-instance inference cache (see inferModulation()).
    mutable Mutex infer_cache_mutex_;
    mutable std::shared_ptr<const InferModulation> infer_modulation_
        LIGHTRIDGE_GUARDED_BY(infer_cache_mutex_);

    // Activation caches (training only).
    Field cached_diffracted_;
    Field cached_out_;

    // Attached misalignment realization (externally owned; see
    // Layer::setPerturbation). Clones start detached.
    const LayerPerturbation *perturb_ = nullptr;
};

} // namespace lightridge
