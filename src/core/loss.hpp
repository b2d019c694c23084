/**
 * @file
 * Training losses (Section 2.1).
 *
 * Classification uses the paper's objective L = ||softmax(I) - t||^2 over
 * detector-region intensities I and a one-hot target t (softmax-MSE);
 * cross-entropy is provided as an alternative. Image-to-image tasks
 * (Section 5.6.2 segmentation) use a per-pixel intensity MSE computed
 * directly on the output field.
 */
#pragma once

#include <vector>

#include "tensor/field.hpp"
#include "utils/types.hpp"

namespace lightridge {

/** Which classification loss the trainer applies. */
enum class LossKind { SoftmaxMse, CrossEntropy };

/** Value + gradient with respect to the detector logits. */
struct LossResult
{
    Real value = 0;
    std::vector<Real> dlogits;
};

/** Numerically stable softmax. */
std::vector<Real> softmax(const std::vector<Real> &logits);

/** Paper loss: L = || softmax(I) - onehot(target) ||^2. */
LossResult softmaxMseLoss(const std::vector<Real> &logits, int target);

/** Standard cross-entropy with softmax. */
LossResult crossEntropyLoss(const std::vector<Real> &logits, int target);

/** Dispatch on LossKind. */
LossResult classificationLoss(LossKind kind, const std::vector<Real> &logits,
                              int target);

/**
 * Per-pixel MSE between scale*|U|^2 and a target map,
 * L = mean((scale*|U|^2 - t)^2), used for all-optical segmentation.
 * Returns L and overwrites `u` with its Wirtinger gradient, so the
 * training pipeline allocates nothing.
 */
Real intensityMseLossInPlace(Field &u, const RealMap &target, Real scale);

/**
 * Prediction confidence: softmax probability assigned to the argmax class.
 * Figure 7 reports this as a function of DONN depth.
 */
Real predictionConfidence(const std::vector<Real> &logits);

} // namespace lightridge
