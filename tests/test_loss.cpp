/**
 * @file
 * Loss function tests: values, gradients (finite differences), softmax
 * identities, confidence metric, detector readout behaviour.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "core/detector.hpp"
#include "core/loss.hpp"
#include "utils/rng.hpp"

namespace lightridge {
namespace {

TEST(Softmax, SumsToOneAndOrdersPreserved)
{
    std::vector<Real> logits{1.0, 3.0, 2.0, -1.0};
    std::vector<Real> s = softmax(logits);
    Real total = 0;
    for (Real v : s)
        total += v;
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_GT(s[1], s[2]);
    EXPECT_GT(s[2], s[0]);
    EXPECT_GT(s[0], s[3]);
}

TEST(Softmax, InvariantToConstantShift)
{
    std::vector<Real> a{0.5, 1.5, -0.2};
    std::vector<Real> b{100.5, 101.5, 99.8};
    std::vector<Real> sa = softmax(a), sb = softmax(b);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(sa[i], sb[i], 1e-12);
}

TEST(SoftmaxMse, PerfectPredictionHasLowLoss)
{
    std::vector<Real> logits{10.0, 0.0, 0.0, 0.0};
    LossResult r = softmaxMseLoss(logits, 0);
    EXPECT_LT(r.value, 1e-3);
}

TEST(SoftmaxMse, UniformLogitsLossMatchesClosedForm)
{
    // softmax = 1/k everywhere: L = (1 - 1/k)^2 + (k-1)/k^2.
    const std::size_t k = 5;
    std::vector<Real> logits(k, 0.7);
    LossResult r = softmaxMseLoss(logits, 2);
    Real p = 1.0 / k;
    Real expected = (1 - p) * (1 - p) + (k - 1) * p * p;
    EXPECT_NEAR(r.value, expected, 1e-12);
}

TEST(SoftmaxMse, GradientMatchesFiniteDifference)
{
    Rng rng(3);
    std::vector<Real> logits(6);
    for (Real &v : logits)
        v = rng.uniform(-2, 2);
    const int target = 4;
    LossResult r = softmaxMseLoss(logits, target);
    const Real eps = 1e-6;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        std::vector<Real> lp = logits, lm = logits;
        lp[i] += eps;
        lm[i] -= eps;
        Real numeric = (softmaxMseLoss(lp, target).value -
                        softmaxMseLoss(lm, target).value) /
                       (2 * eps);
        EXPECT_NEAR(r.dlogits[i], numeric, 1e-7);
    }
}

TEST(CrossEntropy, GradientMatchesFiniteDifference)
{
    Rng rng(5);
    std::vector<Real> logits(5);
    for (Real &v : logits)
        v = rng.uniform(-1, 1);
    const int target = 1;
    LossResult r = crossEntropyLoss(logits, target);
    const Real eps = 1e-6;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        std::vector<Real> lp = logits, lm = logits;
        lp[i] += eps;
        lm[i] -= eps;
        Real numeric = (crossEntropyLoss(lp, target).value -
                        crossEntropyLoss(lm, target).value) /
                       (2 * eps);
        EXPECT_NEAR(r.dlogits[i], numeric, 1e-7);
    }
}

TEST(CrossEntropy, CorrectClassLowersLoss)
{
    std::vector<Real> good{5.0, 0.0, 0.0};
    std::vector<Real> bad{0.0, 5.0, 0.0};
    EXPECT_LT(crossEntropyLoss(good, 0).value,
              crossEntropyLoss(bad, 0).value);
}

TEST(Loss, BadTargetThrows)
{
    std::vector<Real> logits{1.0, 2.0};
    EXPECT_THROW(softmaxMseLoss(logits, -1), std::invalid_argument);
    EXPECT_THROW(softmaxMseLoss(logits, 2), std::invalid_argument);
    EXPECT_THROW(crossEntropyLoss(logits, 5), std::invalid_argument);
}

TEST(IntensityMse, ZeroWhenIntensityMatchesTarget)
{
    Field u(2, 2, Complex{1, 0});
    RealMap target(2, 2, 1.0);
    EXPECT_NEAR(intensityMseLossInPlace(u, target, 1.0), 0.0, 1e-12);
    for (std::size_t i = 0; i < u.size(); ++i)
        EXPECT_NEAR(std::abs(u[i]), 0.0, 1e-12); // now the gradient
}

TEST(IntensityMse, GradientMatchesFiniteDifference)
{
    Rng rng(11);
    Field u(3, 3);
    RealMap target(3, 3);
    for (std::size_t i = 0; i < u.size(); ++i) {
        u[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};
        target[i] = rng.uniform(0, 1);
    }
    const Real scale = 1.3;
    // The loss overwrites its input with the gradient, so every
    // evaluation runs on a copy.
    auto loss = [&](Field v) {
        return intensityMseLossInPlace(v, target, scale);
    };
    Field grad = u;
    intensityMseLossInPlace(grad, target, scale);
    const Real eps = 1e-6;
    for (std::size_t i = 0; i < u.size(); ++i) {
        Field up = u, um = u;
        up[i] += Complex{eps, 0};
        um[i] -= Complex{eps, 0};
        Real d_re = (loss(up) - loss(um)) / (2 * eps);
        up = u;
        um = u;
        up[i] += Complex{0, eps};
        um[i] -= Complex{0, eps};
        Real d_im = (loss(up) - loss(um)) / (2 * eps);
        EXPECT_NEAR(grad[i].real(), d_re, 1e-6);
        EXPECT_NEAR(grad[i].imag(), d_im, 1e-6);
    }
}

TEST(Confidence, SharperLogitsAreMoreConfident)
{
    EXPECT_GT(predictionConfidence({5.0, 0.0, 0.0}),
              predictionConfidence({1.0, 0.0, 0.0}));
    EXPECT_NEAR(predictionConfidence({1.0, 1.0, 1.0, 1.0}), 0.25, 1e-12);
}

TEST(Detector, ReadoutSumsRegionIntensity)
{
    Field u(8, 8, Complex{0, 0});
    u(1, 1) = Complex{2, 0}; // |.|^2 = 4
    u(1, 2) = Complex{0, 1}; // |.|^2 = 1
    u(6, 6) = Complex{3, 0}; // outside both regions below
    std::vector<DetectorRegion> regions{{0, 0, 3, 3}, {4, 4, 2, 2}};
    DetectorPlane det(regions, 2.0);
    std::vector<Real> logits = det.readout(u);
    EXPECT_NEAR(logits[0], 2.0 * 5.0, 1e-12);
    EXPECT_NEAR(logits[1], 0.0, 1e-12);
}

TEST(Detector, GridLayoutFitsAndIsDisjoint)
{
    auto regions = DetectorPlane::gridLayout(64, 10, 6);
    ASSERT_EQ(regions.size(), 10u);
    for (const auto &r : regions) {
        EXPECT_LE(r.r0 + r.h, 64u);
        EXPECT_LE(r.c0 + r.w, 64u);
    }
    // Pairwise disjoint.
    for (std::size_t i = 0; i < regions.size(); ++i)
        for (std::size_t j = i + 1; j < regions.size(); ++j) {
            bool overlap_r = regions[i].r0 < regions[j].r0 + regions[j].h &&
                             regions[j].r0 < regions[i].r0 + regions[i].h;
            bool overlap_c = regions[i].c0 < regions[j].c0 + regions[j].w &&
                             regions[j].c0 < regions[i].c0 + regions[i].w;
            EXPECT_FALSE(overlap_r && overlap_c)
                << "regions " << i << " and " << j << " overlap";
        }
}

TEST(Detector, GridLayoutRejectsImpossibleFit)
{
    EXPECT_THROW(DetectorPlane::gridLayout(8, 10, 6), std::invalid_argument);
    EXPECT_THROW(DetectorPlane::gridLayout(64, 0, 4), std::invalid_argument);
}

TEST(Detector, NoisyReadoutIsBiasedUpButBounded)
{
    Field u(16, 16, Complex{1, 0});
    DetectorPlane det(DetectorPlane::gridLayout(16, 4, 3));
    Rng rng(2);
    std::vector<Real> clean = det.readout(u);
    std::vector<Real> noisy = det.readoutNoisy(u, 0.05, &rng);
    for (std::size_t i = 0; i < clean.size(); ++i) {
        EXPECT_GE(noisy[i], clean[i]);
        EXPECT_LE(noisy[i], clean[i] * 1.06); // bound: 5% of max intensity
    }
}

TEST(Detector, BackwardBeforeForwardThrows)
{
    DetectorPlane det(DetectorPlane::gridLayout(16, 4, 3));
    Field grad;
    EXPECT_THROW(det.backwardInto({1, 0, 0, 0}, grad), std::logic_error);
}

} // namespace
} // namespace lightridge
