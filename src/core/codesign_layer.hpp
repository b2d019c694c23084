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
 */
#pragma once

#include <memory>
#include <vector>

#include "core/device_lut.hpp"
#include "core/layer.hpp"
#include "optics/propagator.hpp"
#include "utils/sync.hpp"

namespace lightridge {

/** Gumbel-softmax quantization-aware diffractive layer. */
class CodesignLayer : public Layer
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
     * fill on the next forward.
     */
    CodesignLayer(const CodesignLayer &other);

    std::string kind() const override { return "codesign"; }

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

    /** Current Gumbel-softmax temperature. */
    Real tau() const { return tau_; }
    void setTau(Real tau) { tau_ = tau; }

    /** Rewire the Gumbel-noise source (per-replica rngs in parallel
     *  training). */
    void setRng(Rng *rng) { rng_ = rng; }

    /** Whether Gumbel sampling is enabled (a noise source is attached). */
    bool hasRng() const { return rng_ != nullptr; }

    Real gamma() const { return gamma_; }
    void setGamma(Real gamma) { gamma_ = gamma; }

    const DeviceLut &lut() const { return lut_; }

    const Propagator &propagator() const { return *propagator_; }

    /** Per-unit argmax device-level indices (the deployable weights). */
    std::vector<std::size_t> levelIndices() const;

    /**
     * Initialize logits so the argmax state approximates a target phase
     * mask (used to warm-start codesign from a raw-trained model).
     */
    void initFromPhase(const RealMap &phase, Real confidence = 4.0);

    /** Number of diffraction units per side. */
    std::size_t sideLength() const;

    static std::unique_ptr<CodesignLayer>
    fromJson(const Json &j, std::shared_ptr<const Propagator> propagator);

  private:
    /** Softmax over the K logits of unit i into out. */
    void unitSoftmax(std::size_t i, bool with_noise, Real *out);

    /** Immutable published argmax modulation + the logits it encodes. */
    struct InferModulation
    {
        Field table;               ///< lut.levels[argmax] per unit
        std::vector<Real> logits;  ///< snapshot the table was built from
    };

    /**
     * Thread-safe shared-instance argmax-LUT cache for the inference
     * path (the codesign counterpart of DiffractiveLayer's modulation
     * cache): the per-unit argmax device state is resolved once per
     * weight update instead of once per request per worker. Values are
     * exactly lut.levels[argmax], so inference stays bitwise-identical.
     */
    std::shared_ptr<const InferModulation> inferModulation() const
        LIGHTRIDGE_EXCLUDES(infer_cache_mutex_);

    /** Currently published table (no rebuild); for the copy constructor,
     *  which shares the immutable snapshot across instances. */
    std::shared_ptr<const InferModulation> publishedModulation() const
        LIGHTRIDGE_EXCLUDES(infer_cache_mutex_);

    std::shared_ptr<const Propagator> propagator_;
    DeviceLut lut_;
    Real tau_;
    Real gamma_;
    Rng *rng_;

    std::vector<Real> logits_;      // n*n*K
    std::vector<Real> logits_grad_; // n*n*K

    // Shared-instance inference cache (see inferModulation()).
    mutable Mutex infer_cache_mutex_;
    mutable std::shared_ptr<const InferModulation> infer_modulation_
        LIGHTRIDGE_GUARDED_BY(infer_cache_mutex_);

    // Training caches.
    std::vector<Real> cached_probs_; // n*n*K soft assignments
    Field cached_diffracted_;
    Field cached_modulation_; // per-unit soft modulation M_i

    // Attached misalignment realization (externally owned; see
    // Layer::setPerturbation). Clones start detached.
    const LayerPerturbation *perturb_ = nullptr;
};

} // namespace lightridge
