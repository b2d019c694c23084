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
 *
 * The hop, the multiply and the published table live in ModulationLayer;
 * this kind supplies the table M = exp(j * phi), which training and
 * inference both read, and the phase gradient.
 */
#pragma once

#include <memory>

#include "core/modulation_layer.hpp"

namespace lightridge {

/** Trainable phase-modulation layer preceded by a free-space hop. */
class DiffractiveLayer : public ModulationLayer
{
  public:
    /**
     * @param propagator shared pre-hop free-space operator
     * @param gamma amplitude regularization factor (1.0 = off)
     * @param rng optional source for small random phase init
     */
    DiffractiveLayer(std::shared_ptr<const Propagator> propagator,
                     Real gamma = 1.0, Rng *rng = nullptr);

    std::string kind() const override { return "diffractive"; }

    LayerPtr clone() const override;
    std::vector<ParamView> params() override;
    Json toJson() const override;

    /** Trainable per-unit phase values [rad]. */
    const RealMap &phase() const { return phase_; }
    RealMap &phase() { return phase_; }

  protected:
    const std::vector<Real> &tableParams() const override
    {
        return phase_.raw();
    }

    /**
     * exp(j*phi), the exact std::polar results; backward multiplies by
     * their conjugates, which equal std::polar(1, -phi) bit for bit (sin
     * is odd, cos even).
     */
    void buildTable(Field &table) const override;

    /** dL/dphi = Re(conj(G_out) * j * U_out). */
    void accumulateGrad(const Field &g, const Field &m) override;

  private:
    RealMap phase_;
    RealMap phase_grad_;
};

} // namespace lightridge
