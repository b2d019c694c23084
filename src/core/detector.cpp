#include "core/detector.hpp"

#include <cmath>
#include <stdexcept>

#include "optics/workspace.hpp"

namespace lightridge {

namespace {

/** Region-integrated intensity of one region over a complex field. */
Real
regionIntensity(const Field &u, const DetectorRegion &reg)
{
    Real total = 0;
    for (std::size_t r = reg.r0; r < reg.r0 + reg.h; ++r)
        for (std::size_t c = reg.c0; c < reg.c0 + reg.w; ++c)
            total += std::norm(u(r, c));
    return total;
}

/** Region-integrated value of one region over a real intensity map. */
Real
regionIntensity(const RealMap &intensity, const DetectorRegion &reg)
{
    Real total = 0;
    for (std::size_t r = reg.r0; r < reg.r0 + reg.h; ++r)
        for (std::size_t c = reg.c0; c < reg.c0 + reg.w; ++c)
            total += intensity(r, c);
    return total;
}

} // namespace

DetectorPlane::DetectorPlane(std::vector<DetectorRegion> regions,
                             Real amp_factor)
    : regions_(std::move(regions)), amp_factor_(amp_factor)
{
    if (regions_.empty())
        throw std::invalid_argument("DetectorPlane: no regions");
}

DetectorPlane::DetectorPlane(std::vector<DetectorRegion> regions,
                             std::vector<DetectorRegion> neg_regions,
                             Real amp_factor)
    : regions_(std::move(regions)), neg_regions_(std::move(neg_regions)),
      mode_(DetectorMode::Differential), amp_factor_(amp_factor)
{
    if (regions_.empty())
        throw std::invalid_argument("DetectorPlane: no regions");
    if (neg_regions_.size() != regions_.size())
        throw std::invalid_argument(
            "DetectorPlane: differential mode needs one negative region "
            "per positive region");
}

std::vector<Real>
DetectorPlane::readout(const Field &u) const
{
    std::vector<Real> logits(regions_.size(), 0.0);
    if (differential()) {
        for (std::size_t k = 0; k < regions_.size(); ++k) {
            Real p = regionIntensity(u, regions_[k]);
            Real n = regionIntensity(u, neg_regions_[k]);
            logits[k] = amp_factor_ * (p - n) / (p + n + kDifferentialEps);
        }
        return logits;
    }
    for (std::size_t k = 0; k < regions_.size(); ++k)
        logits[k] = amp_factor_ * regionIntensity(u, regions_[k]);
    return logits;
}

std::vector<Real>
DetectorPlane::readoutFromIntensity(const RealMap &intensity) const
{
    std::vector<Real> logits(regions_.size(), 0.0);
    if (differential()) {
        for (std::size_t k = 0; k < regions_.size(); ++k) {
            Real p = regionIntensity(intensity, regions_[k]);
            Real n = regionIntensity(intensity, neg_regions_[k]);
            logits[k] = amp_factor_ * (p - n) / (p + n + kDifferentialEps);
        }
        return logits;
    }
    for (std::size_t k = 0; k < regions_.size(); ++k)
        logits[k] = amp_factor_ * regionIntensity(intensity, regions_[k]);
    return logits;
}

std::vector<Real>
DetectorPlane::readoutNoisy(const Field &u, Real noise_frac, Rng *rng) const
{
    RealMap intensity = u.intensity();
    Real bound = noise_frac * intensity.max();
    for (std::size_t i = 0; i < intensity.size(); ++i)
        intensity[i] += rng->uniform(0.0, bound);
    return readoutFromIntensity(intensity);
}

std::vector<Real>
DetectorPlane::forward(const Field &u)
{
    cached_u_ = u;
    return readout(u);
}

void
DetectorPlane::backwardInto(const std::vector<Real> &dlogits,
                            Field &grad) const
{
    if (cached_u_.empty())
        throw std::logic_error(
            "DetectorPlane::backwardInto before forward");
    backwardForInto(cached_u_, dlogits, grad);
}

void
DetectorPlane::backwardForInto(const Field &u,
                               const std::vector<Real> &dlogits,
                               Field &grad) const
{
    if (dlogits.size() != regions_.size())
        throw std::invalid_argument("DetectorPlane: dlogits size mismatch");
    ensureFieldShape(grad, u.rows(), u.cols());
    grad.fill(Complex{0, 0});
    if (differential()) {
        // logit = amp * (P - N) / (P + N + eps) with P/N the pos/neg
        // region intensity sums, so per region sum:
        //   dlogit/dP =  amp * (2N + eps) / S^2
        //   dlogit/dN = -amp * (2P + eps) / S^2    with S = P + N + eps,
        // and each pixel contributes d(sum)/du = 2u (Wirtinger).
        for (std::size_t k = 0; k < regions_.size(); ++k) {
            Real p = regionIntensity(u, regions_[k]);
            Real n = regionIntensity(u, neg_regions_[k]);
            Real s = p + n + kDifferentialEps;
            Real wp = amp_factor_ * (2 * n + kDifferentialEps) / (s * s);
            Real wn = -amp_factor_ * (2 * p + kDifferentialEps) / (s * s);
            const DetectorRegion &pos = regions_[k];
            Real pos_scale = 2 * dlogits[k] * wp;
            for (std::size_t r = pos.r0; r < pos.r0 + pos.h; ++r)
                for (std::size_t c = pos.c0; c < pos.c0 + pos.w; ++c)
                    grad(r, c) += pos_scale * u(r, c);
            const DetectorRegion &neg = neg_regions_[k];
            Real neg_scale = 2 * dlogits[k] * wn;
            for (std::size_t r = neg.r0; r < neg.r0 + neg.h; ++r)
                for (std::size_t c = neg.c0; c < neg.c0 + neg.w; ++c)
                    grad(r, c) += neg_scale * u(r, c);
        }
        return;
    }
    for (std::size_t k = 0; k < regions_.size(); ++k) {
        const DetectorRegion &reg = regions_[k];
        // logit = amp * sum |u|^2  =>  G = 2 * amp * dlogit * u.
        Real scale = 2 * amp_factor_ * dlogits[k];
        for (std::size_t r = reg.r0; r < reg.r0 + reg.h; ++r)
            for (std::size_t c = reg.c0; c < reg.c0 + reg.w; ++c)
                grad(r, c) += scale * u(r, c);
    }
}

std::vector<DetectorRegion>
DetectorPlane::gridLayout(std::size_t n, std::size_t num_classes,
                          std::size_t det_size)
{
    if (num_classes == 0 || det_size == 0)
        throw std::invalid_argument("gridLayout: empty layout");
    // Near-square arrangement: cols = ceil(sqrt(k)).
    std::size_t cols = 1;
    while (cols * cols < num_classes)
        ++cols;
    std::size_t rows = (num_classes + cols - 1) / cols;
    if ((rows + 1) * det_size > n || (cols + 1) * det_size > n)
        throw std::invalid_argument("gridLayout: regions do not fit plane");

    std::vector<DetectorRegion> regions;
    regions.reserve(num_classes);
    for (std::size_t k = 0; k < num_classes; ++k) {
        std::size_t row = k / cols;
        std::size_t col = k % cols;
        std::size_t in_row = std::min(cols, num_classes - row * cols);
        // Even spacing: centers at (i+1)/(count+1) of the plane.
        Real cy = static_cast<Real>(row + 1) / (rows + 1) * n;
        Real cx = static_cast<Real>(col + 1) / (in_row + 1) * n;
        DetectorRegion reg;
        reg.h = det_size;
        reg.w = det_size;
        reg.r0 = static_cast<std::size_t>(
            std::min<Real>(std::max<Real>(cy - det_size / 2.0, 0),
                           n - det_size));
        reg.c0 = static_cast<std::size_t>(
            std::min<Real>(std::max<Real>(cx - det_size / 2.0, 0),
                           n - det_size));
        regions.push_back(reg);
    }
    return regions;
}

std::pair<std::vector<DetectorRegion>, std::vector<DetectorRegion>>
DetectorPlane::differentialGridLayout(std::size_t n, std::size_t num_classes,
                                      std::size_t det_size)
{
    // Lay out 2k evenly spaced regions; consecutive slots form each
    // class's positive/negative pair, so pairs sit adjacent on the plane
    // (the geometry of Li et al., arXiv:1906.03417, Fig. 1).
    std::vector<DetectorRegion> all =
        gridLayout(n, 2 * num_classes, det_size);
    std::vector<DetectorRegion> pos, neg;
    pos.reserve(num_classes);
    neg.reserve(num_classes);
    for (std::size_t k = 0; k < num_classes; ++k) {
        pos.push_back(all[2 * k]);
        neg.push_back(all[2 * k + 1]);
    }
    return {std::move(pos), std::move(neg)};
}

} // namespace lightridge
