/**
 * @file
 * Optical/photon detector plane (lr.layers.detector).
 *
 * The detector is the analog-to-digital interface of a DONN (Section 2):
 * it captures the light intensity pattern and integrates it over
 * per-class regions; the region sums act as the pre-softmax logits of the
 * classifier. Region geometry is configurable exactly like the paper's
 * x_loc/y_loc/det_size API, with an evenly spaced default layout.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/field.hpp"
#include "utils/rng.hpp"
#include "utils/types.hpp"

namespace lightridge {

/** Axis-aligned rectangular detector region (row/col origin + size). */
struct DetectorRegion
{
    std::size_t r0 = 0;
    std::size_t c0 = 0;
    std::size_t h = 0;
    std::size_t w = 0;
};

/** How region intensities are turned into logits. */
enum class DetectorMode
{
    /** Plain region-integrated intensity (the paper's default readout). */
    Intensity,
    /**
     * Class-specific differential detection (Li et al., arXiv:1906.03417):
     * each class owns a positive and a negative region, and the logit is
     * the normalized intensity difference
     *   amp * (P - N) / (P + N + eps),
     * which cancels global illumination power and doubles the usable
     * dynamic range of the readout.
     */
    Differential,
};

/** Per-class intensity-integrating readout plane. */
class DetectorPlane
{
  public:
    DetectorPlane() = default;

    /**
     * @param regions one region per class
     * @param amp_factor scale applied to region sums before the loss
     *        (the paper's trainable "amplitude factor" calibration knob)
     */
    explicit DetectorPlane(std::vector<DetectorRegion> regions,
                           Real amp_factor = 1.0);

    /**
     * Differential-detection plane: one positive and one negative region
     * per class (the vectors must have equal size). Logits are normalized
     * intensity differences; amp_factor scales the normalized value so
     * calibration still controls the softmax operating point.
     */
    DetectorPlane(std::vector<DetectorRegion> regions,
                  std::vector<DetectorRegion> neg_regions,
                  Real amp_factor = 1.0);

    std::size_t numClasses() const { return regions_.size(); }
    const std::vector<DetectorRegion> &regions() const { return regions_; }

    DetectorMode mode() const { return mode_; }
    bool differential() const
    {
        return mode_ == DetectorMode::Differential;
    }

    /** Negative regions (empty unless differential). */
    const std::vector<DetectorRegion> &negRegions() const
    {
        return neg_regions_;
    }

    Real ampFactor() const { return amp_factor_; }
    void setAmpFactor(Real a) { amp_factor_ = a; }

    /** Pure readout: region-integrated intensities times amp_factor. */
    std::vector<Real> readout(const Field &u) const;

    /**
     * Readout from an already-digitized intensity map (e.g. the CMOS
     * detector model's ADC output in the hardware deployment path).
     */
    std::vector<Real> readoutFromIntensity(const RealMap &intensity) const;

    /**
     * Readout with uniform random intensity noise injected per pixel with
     * upper bound noise_frac * max intensity (the Fig. 7 robustness test).
     */
    std::vector<Real> readoutNoisy(const Field &u, Real noise_frac,
                                   Rng *rng) const;

    /** Caching forward for training: readout() that keeps `u` for
     *  backwardInto(). */
    std::vector<Real> forward(const Field &u);

    /**
     * Backprop dL/dlogits of the last forward() to a Wirtinger field
     * gradient written into `grad` (resized at most once; allocation-free
     * in steady state). `grad` must not alias the cached forward field.
     */
    void backwardInto(const std::vector<Real> &dlogits, Field &grad) const;

    /**
     * backwardInto() against an externally provided field (used by the
     * multi-channel architecture, where several stacks share one
     * detector); `grad` must not alias `u`.
     */
    void backwardForInto(const Field &u, const std::vector<Real> &dlogits,
                         Field &grad) const;

    /**
     * Evenly spaced grid layout: num_classes square regions of det_size
     * pixels arranged in near-square rows across an n-by-n plane, mirroring
     * the paper's "10 pre-defined detector regions placed evenly".
     */
    static std::vector<DetectorRegion>
    gridLayout(std::size_t n, std::size_t num_classes, std::size_t det_size);

    /** Positive/negative region pair lists for differential detection:
     *  2*num_classes evenly spaced regions, alternating pos/neg so each
     *  class's pair sits adjacent on the plane. */
    static std::pair<std::vector<DetectorRegion>,
                     std::vector<DetectorRegion>>
    differentialGridLayout(std::size_t n, std::size_t num_classes,
                           std::size_t det_size);

  private:
    std::vector<DetectorRegion> regions_;
    std::vector<DetectorRegion> neg_regions_;
    DetectorMode mode_ = DetectorMode::Intensity;
    Real amp_factor_ = 1.0;
    Field cached_u_;
};

/** Denominator guard of the normalized differential readout. */
inline constexpr Real kDifferentialEps = 1e-12;

} // namespace lightridge
