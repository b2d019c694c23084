/**
 * @file
 * Hardware-aware diffractive layer (lr.layers.diffractlayer).
 *
 * Implements the physics-aware codesign algorithm of Section 3.2 / [30]:
 * each diffraction unit holds a categorical distribution over the K
 * *measured* modulation states of the target device (DeviceLut). Training
 * relaxes the discrete choice with Gumbel-softmax so gradients flow to the
 * logits ("quantization-aware training without quantization
 * approximations"); deployment takes the argmax state, which is exactly
 * realizable on hardware - eliminating the post-training calibration gap
 * the paper's Figure 1 quantifies.
 *
 * The hop, the multiply and the published table live in ModulationLayer;
 * this kind supplies the deployed table lut[argmax], the soft training
 * modulation and the logit gradient.
 */
#pragma once

#include <memory>
#include <vector>

#include "core/device_lut.hpp"
#include "core/modulation_layer.hpp"

namespace lightridge {

/** Gumbel-softmax quantization-aware diffractive layer. */
class CodesignLayer : public ModulationLayer
{
  public:
    /**
     * @param propagator shared pre-hop free-space operator
     * @param lut realizable device modulation states
     * @param tau Gumbel-softmax temperature (annealed by the trainer)
     * @param gamma amplitude regularization factor
     * @param rng source for Gumbel noise; nullptr disables sampling
     */
    CodesignLayer(std::shared_ptr<const Propagator> propagator,
                  DeviceLut lut, Real tau = 1.0, Real gamma = 1.0,
                  Rng *rng = nullptr);

    /**
     * Copy carries the logits, their gradients and the (immutable)
     * published argmax-LUT table; the training caches start empty and
     * fill on the next forward. The rng pointer is copied as-is; parallel
     * trainers rewire replicas via setRng().
     */
    CodesignLayer(const CodesignLayer &other);

    std::string kind() const override { return "codesign"; }

    LayerPtr clone() const override;
    std::vector<ParamView> params() override;
    Json toJson() const override;

    /** Current Gumbel-softmax temperature. */
    Real tau() const { return tau_; }
    void setTau(Real tau) { tau_ = tau; }

    /** Rewire the Gumbel-noise source (per-replica rngs in parallel
     *  training). */
    void setRng(Rng *rng) { rng_ = rng; }

    /** Whether Gumbel sampling is enabled (a noise source is attached). */
    bool hasRng() const { return rng_ != nullptr; }

    const DeviceLut &lut() const { return lut_; }

    /** Per-unit argmax device-level indices (the deployable weights). */
    std::vector<std::size_t> levelIndices() const;

    /**
     * Initialize logits so the argmax state approximates a target phase
     * mask (used to warm-start codesign from a raw-trained model).
     */
    void initFromPhase(const RealMap &phase, Real confidence = 4.0);

  protected:
    const std::vector<Real> &tableParams() const override { return logits_; }

    /** Deployment: exactly lut.levels[argmax] per unit. */
    void buildTable(Field &table) const override;

    /**
     * Training relaxes the argmax to the soft modulation
     * M_i = sum_j p_ij * lut_j, with p the Gumbel-softmax of the logits
     * (drawn on forward, reused on backward).
     */
    const Field &trainingModulation(bool sample, TablePtr &hold) override;

    /** Softmax-Jacobian gradient of the logits. */
    void accumulateGrad(const Field &g, const Field &m) override;

  private:
    /** Softmax over the K logits of unit i into out. */
    void unitSoftmax(std::size_t i, bool with_noise, Real *out);

    DeviceLut lut_;
    Real tau_;
    Rng *rng_;

    std::vector<Real> logits_;      // n*n*K
    std::vector<Real> logits_grad_; // n*n*K

    // Training caches.
    std::vector<Real> cached_probs_; // n*n*K soft assignments
    Field cached_modulation_;        // per-unit soft modulation M_i
};

} // namespace lightridge
