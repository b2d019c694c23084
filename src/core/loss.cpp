#include "core/loss.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lightridge {

std::vector<Real>
softmax(const std::vector<Real> &logits)
{
    Real peak = *std::max_element(logits.begin(), logits.end());
    std::vector<Real> probs(logits.size());
    Real total = 0;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        probs[i] = std::exp(logits[i] - peak);
        total += probs[i];
    }
    for (Real &p : probs)
        p /= total;
    return probs;
}

LossResult
softmaxMseLoss(const std::vector<Real> &logits, int target)
{
    if (target < 0 || static_cast<std::size_t>(target) >= logits.size())
        throw std::invalid_argument("softmaxMseLoss: bad target");
    std::vector<Real> s = softmax(logits);

    LossResult out;
    out.dlogits.assign(logits.size(), 0.0);
    // dL/ds_j = 2 (s_j - t_j); chain through the softmax Jacobian:
    // dL/dI_i = s_i (dL/ds_i - sum_j dL/ds_j s_j).
    std::vector<Real> dlds(logits.size());
    Real inner = 0;
    for (std::size_t j = 0; j < logits.size(); ++j) {
        Real t = (static_cast<int>(j) == target) ? 1.0 : 0.0;
        Real diff = s[j] - t;
        out.value += diff * diff;
        dlds[j] = 2 * diff;
        inner += dlds[j] * s[j];
    }
    for (std::size_t i = 0; i < logits.size(); ++i)
        out.dlogits[i] = s[i] * (dlds[i] - inner);
    return out;
}

LossResult
crossEntropyLoss(const std::vector<Real> &logits, int target)
{
    if (target < 0 || static_cast<std::size_t>(target) >= logits.size())
        throw std::invalid_argument("crossEntropyLoss: bad target");
    std::vector<Real> s = softmax(logits);
    LossResult out;
    out.value = -std::log(std::max(s[target], Real(1e-300)));
    out.dlogits.resize(logits.size());
    for (std::size_t i = 0; i < logits.size(); ++i) {
        Real t = (static_cast<int>(i) == target) ? 1.0 : 0.0;
        out.dlogits[i] = s[i] - t;
    }
    return out;
}

LossResult
classificationLoss(LossKind kind, const std::vector<Real> &logits, int target)
{
    return kind == LossKind::SoftmaxMse ? softmaxMseLoss(logits, target)
                                        : crossEntropyLoss(logits, target);
}

Real
intensityMseLossInPlace(Field &u, const RealMap &target, Real scale)
{
    if (u.size() != target.size())
        throw std::invalid_argument(
            "intensityMseLossInPlace: shape mismatch");
    Real value = 0;
    const Real inv_n = Real(1) / static_cast<Real>(u.size());
    for (std::size_t i = 0; i < u.size(); ++i) {
        Real intensity = scale * std::norm(u[i]);
        Real diff = intensity - target[i];
        value += diff * diff * inv_n;
        // dL/dI = 2 diff / N; G = dL/dI * scale * 2 * u.
        u[i] = Real(4) * diff * inv_n * scale * u[i];
    }
    return value;
}

Real
predictionConfidence(const std::vector<Real> &logits)
{
    std::vector<Real> s = softmax(logits);
    return *std::max_element(s.begin(), s.end());
}

} // namespace lightridge
