/**
 * @file
 * Finite-difference verification of every hand-derived backward pass:
 * diffractive layer phases, codesign logits, layer norm, optical skip,
 * detector + loss chains, and whole-model end-to-end gradients; plus a
 * bitwise pin of the diffractive field gradient against its definition.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>

#include "core/layer_norm.hpp"
#include "core/model.hpp"
#include "core/skip.hpp"
#include "core/session.hpp"
#include "support/hop.hpp"
#include "utils/rng.hpp"

namespace lightridge {
namespace {

SystemSpec
tinySpec(std::size_t n = 12)
{
    SystemSpec spec;
    spec.size = n;
    spec.pixel = 36e-6;
    spec.distance = 0.01;
    return spec;
}

RealMap
randomImage(std::size_t n, uint64_t seed)
{
    Rng rng(seed);
    RealMap img(n, n);
    for (std::size_t i = 0; i < img.size(); ++i)
        img[i] = rng.uniform(0, 1);
    return img;
}

/**
 * Compare the analytic gradient of `loss_fn` w.r.t. selected entries of a
 * parameter vector against central finite differences.
 */
void
checkParamGradient(std::vector<Real> *value, const std::vector<Real> &grad,
                   const std::function<Real()> &loss_fn,
                   std::initializer_list<std::size_t> probe_indices,
                   Real eps = 1e-6, Real tol = 2e-4)
{
    for (std::size_t idx : probe_indices) {
        ASSERT_LT(idx, value->size());
        Real saved = (*value)[idx];
        (*value)[idx] = saved + eps;
        Real plus = loss_fn();
        (*value)[idx] = saved - eps;
        Real minus = loss_fn();
        (*value)[idx] = saved;
        Real numeric = (plus - minus) / (2 * eps);
        Real scale = std::max({std::abs(numeric), std::abs(grad[idx]),
                               Real(1e-3)});
        EXPECT_NEAR(grad[idx], numeric, tol * scale) << "param index " << idx;
    }
}

/**
 * One training forward, softmax-MSE loss and backward through the
 * in-place passes; parameter gradients accumulate.
 */
void
trainStep(DonnModel &model, Field u, int label)
{
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    std::vector<Real> logits = model.forwardLogitsInPlace(u, true, workspace);
    LossResult lr = softmaxMseLoss(logits, label);
    model.backwardFromLogitsInPlace(lr.dlogits, u, workspace);
}

/** Build, run forward+loss+backward once, return the loss closure. */
struct ModelHarness
{
    DonnModel model;
    RealMap image;
    int label;

    Real
    loss()
    {
        Field u = model.encode(image);
        std::vector<Real> logits =
            model.inferLogitsInPlace(u, PropagationWorkspace::threadLocal());
        return softmaxMseLoss(logits, label).value;
    }

    void
    backwardOnce()
    {
        model.zeroGrad();
        trainStep(model, model.encode(image), label);
    }
};

TEST(Gradients, DiffractiveLayerPhase)
{
    Rng rng(42);
    ModelHarness h{ModelBuilder(tinySpec(), Laser{})
                       .diffractiveLayers(2, 1.0, &rng)
                       .detectorGrid(4, 2)
                       .build(),
                   randomImage(12, 1), 2};
    h.model.detector().setAmpFactor(25.0); // healthy logit scale
    h.backwardOnce();

    auto params = h.model.params();
    ASSERT_EQ(params.size(), 2u);
    for (auto &p : params)
        checkParamGradient(p.value, *p.grad, [&] { return h.loss(); },
                           {0, 5, 17, 50, 143});
}

TEST(Gradients, DiffractiveLayerWithGamma)
{
    Rng rng(7);
    ModelHarness h{ModelBuilder(tinySpec(), Laser{})
                       .diffractiveLayers(1, 1.7, &rng)
                       .detectorGrid(4, 2)
                       .build(),
                   randomImage(12, 2), 0};
    h.model.detector().setAmpFactor(10.0);
    h.backwardOnce();
    auto params = h.model.params();
    checkParamGradient(params[0].value, *params[0].grad,
                       [&] { return h.loss(); }, {3, 66, 100});
}

TEST(Gradients, DiffractiveLayerFresnelAndPadded)
{
    SystemSpec spec = tinySpec();
    spec.approx = Diffraction::Fresnel;
    spec.pad_factor = 2;
    Rng rng(9);
    ModelHarness h{ModelBuilder(spec, Laser{})
                       .diffractiveLayers(2, 1.0, &rng)
                       .detectorGrid(4, 2)
                       .build(),
                   randomImage(12, 3), 1};
    h.model.detector().setAmpFactor(40.0);
    h.backwardOnce();
    auto params = h.model.params();
    for (auto &p : params)
        checkParamGradient(p.value, *p.grad, [&] { return h.loss(); },
                           {11, 77});
}

TEST(Gradients, DiffractiveBackwardIsAdjointOfConjugateModulation)
{
    // backwardInPlace() multiplies by the conjugate of its cached
    // exp(j*phi) table rather than a second exp(-j*phi) table; the two
    // must agree bit for bit, special phases included.
    DonnModel model = ModelBuilder(tinySpec(), Laser{})
                          .diffractiveLayers(1)
                          .detectorGrid(4, 2)
                          .build();
    Rng rng(21);
    const Real gamma = 1.7;
    DiffractiveLayer layer(model.hopPropagator(), gamma, &rng);
    const Real specials[] = {0.0,   -0.0,   kPi,     -kPi,   kTwoPi,
                             1e6,   -1e6,   5e-324,  -5e-324, 0.5 * kPi,
                             1e300, -1e300, 1e-300,  kPi / 3};
    for (std::size_t i = 0; i < std::size(specials); ++i)
        layer.phase()[i] = specials[i];

    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    const std::size_t n = layer.phase().rows();
    Field u(n, n);
    Field g(n, n);
    for (std::size_t i = 0; i < u.size(); ++i) {
        u[i] = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
        g[i] = Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
    }
    layer.forwardInPlace(u, workspace);

    Field modulated(n, n);
    for (std::size_t i = 0; i < g.size(); ++i)
        modulated[i] = g[i] * gamma * std::polar(Real(1), -layer.phase()[i]);
    const Field expected = hopAdjoint(layer.propagator(), modulated);

    layer.backwardInPlace(g, workspace);
    ASSERT_EQ(g.size(), expected.size());
    EXPECT_EQ(std::memcmp(g.data(), expected.data(),
                          g.size() * sizeof(Complex)),
              0);
}

TEST(Gradients, CodesignLayerLogits)
{
    SystemSpec spec = tinySpec();
    DeviceLut lut = DeviceLut::idealPhase(6);
    Rng init(3);
    // rng = nullptr: deterministic (no Gumbel noise) so finite differences
    // are well defined; noise is exercised in the training tests.
    ModelHarness h{ModelBuilder(spec, Laser{})
                       .codesignLayers(1, lut, 0.8, 1.0, nullptr)
                       .detectorGrid(4, 2)
                       .build(),
                   randomImage(12, 4), 3};
    h.model.detector().setAmpFactor(30.0);

    // Seed logits with structure so gradients are informative.
    auto params = h.model.params();
    Rng lrng(5);
    for (Real &v : *params[0].value)
        v = lrng.uniform(-0.5, 0.5);

    // Codesign inference uses the argmax state, which is not
    // differentiable; evaluate the loss with the soft training path
    // instead.
    auto soft_loss = [&]() -> Real {
        Field u = h.model.encode(h.image);
        std::vector<Real> logits = h.model.forwardLogitsInPlace(
            u, true, PropagationWorkspace::threadLocal());
        return softmaxMseLoss(logits, h.label).value;
    };
    h.model.zeroGrad();
    trainStep(h.model, h.model.encode(h.image), h.label);

    checkParamGradient(params[0].value, *params[0].grad, soft_loss,
                       {0, 7, 100, 500, 863});
}

class LayerNormModeTest : public ::testing::TestWithParam<bool>
{};

TEST_P(LayerNormModeTest, BackwardMatchesFiniteDifference)
{
    const bool subtract_mean = GetParam();
    // Isolated check against finite differences through a scalar readout.
    const std::size_t n = 6;
    Rng rng(12);
    Field x(n, n);
    for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = Complex{rng.uniform(-1, 1), rng.uniform(-1, 1)};

    // Scalar loss: weighted intensity of the normalized field.
    RealMap w(n, n);
    for (std::size_t i = 0; i < w.size(); ++i)
        w[i] = rng.uniform(0, 1);

    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    LayerNormLayer layer(1e-12, subtract_mean);
    auto loss_of = [&](const Field &in) -> Real {
        LayerNormLayer probe(1e-12, subtract_mean);
        Field y = in;
        probe.forwardInPlace(y, workspace);
        Real total = 0;
        for (std::size_t i = 0; i < y.size(); ++i)
            total += w[i] * std::norm(y[i]);
        return total;
    };

    Field y = x;
    layer.forwardInPlace(y, workspace);
    Field gx(n, n);
    for (std::size_t i = 0; i < gx.size(); ++i)
        gx[i] = Real(2) * w[i] * y[i]; // dL/dY for L = sum w |y|^2
    layer.backwardInPlace(gx, workspace);

    // Finite differences on the real and imaginary parts of entries.
    const Real eps = 1e-6;
    for (std::size_t idx : {std::size_t(0), std::size_t(13),
                            std::size_t(27)}) {
        Field xp = x, xm = x;
        xp[idx] += Complex{eps, 0};
        xm[idx] -= Complex{eps, 0};
        Real d_re = (loss_of(xp) - loss_of(xm)) / (2 * eps);
        xp = x;
        xm = x;
        xp[idx] += Complex{0, eps};
        xm[idx] -= Complex{0, eps};
        Real d_im = (loss_of(xp) - loss_of(xm)) / (2 * eps);
        // Convention: dL = Re(conj(G) dx) => dL/dRe = Re(G), dL/dIm = Im(G).
        EXPECT_NEAR(gx[idx].real(), d_re, 1e-4);
        EXPECT_NEAR(gx[idx].imag(), d_im, 1e-4);
    }
}

INSTANTIATE_TEST_SUITE_P(BothModes, LayerNormModeTest,
                         ::testing::Values(false, true));

TEST(Gradients, LayerNormIsIdentityAtInference)
{
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    LayerNormLayer layer;
    Field x(4, 4, Complex{2, -1});
    Field y = x;
    layer.inferInPlace(y, workspace);
    EXPECT_EQ(maxAbsDiff(x, y), 0.0);
    // Inference caches nothing, so a backward after it passes the
    // gradient through unchanged.
    Field g(4, 4, Complex{0.5, 0.5});
    Field gx = g;
    layer.backwardInPlace(gx, workspace);
    EXPECT_EQ(maxAbsDiff(g, gx), 0.0);
}

TEST(Gradients, OpticalSkipLayer)
{
    SystemSpec spec = tinySpec();
    Laser laser;
    DonnModel model(spec, laser);
    Rng rng(21);

    std::vector<LayerPtr> inner;
    inner.push_back(std::make_unique<DiffractiveLayer>(model.hopPropagator(),
                                                       1.0, &rng));
    inner.push_back(std::make_unique<DiffractiveLayer>(model.hopPropagator(),
                                                       1.0, &rng));
    model.addLayer(std::make_unique<OpticalSkipLayer>(model.hopPropagator(),
                                                      std::move(inner)));
    model.setDetector(
        DetectorPlane(DetectorPlane::gridLayout(12, 4, 2), 25.0));

    ModelHarness h{std::move(model), randomImage(12, 6), 1};
    h.backwardOnce();
    auto params = h.model.params();
    ASSERT_EQ(params.size(), 2u);
    for (auto &p : params)
        checkParamGradient(p.value, *p.grad, [&] { return h.loss(); },
                           {4, 88, 120});
}

TEST(Gradients, SegmentationIntensityLoss)
{
    SystemSpec spec = tinySpec();
    Rng rng(31);
    DonnModel model = ModelBuilder(spec, Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .layerNorm()
                          .detectorGrid(4, 2)
                          .build();
    RealMap image = randomImage(12, 7);
    RealMap mask(12, 12);
    Rng mrng(8);
    for (std::size_t i = 0; i < mask.size(); ++i)
        mask[i] = mrng.bernoulli(0.5) ? 1.0 : 0.0;

    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    auto loss_fn = [&]() -> Real {
        Field u = model.encode(image);
        model.forwardFieldInPlace(u, true, workspace);
        return intensityMseLossInPlace(u, mask, 3.0);
    };

    model.zeroGrad();
    Field u = model.encode(image);
    model.forwardFieldInPlace(u, true, workspace);
    intensityMseLossInPlace(u, mask, 3.0);
    model.backwardFieldInPlace(u, workspace);

    auto params = model.params();
    for (auto &p : params)
        checkParamGradient(p.value, *p.grad, loss_fn, {2, 50, 99});
}

TEST(Gradients, MultiChannelShared)
{
    SystemSpec spec = tinySpec();
    Rng rng(17);
    std::vector<std::unique_ptr<DonnModel>> channels;
    for (int ch = 0; ch < 3; ++ch) {
        auto m = std::make_unique<DonnModel>(
            ModelBuilder(spec, Laser{})
                .diffractiveLayers(1, 1.0, &rng)
                .detectorGrid(4, 2)
                .build());
        m->detector().setAmpFactor(10.0);
        channels.push_back(std::move(m));
    }
    MultiChannelDonn model(std::move(channels));

    std::array<RealMap, 3> rgb{randomImage(12, 9), randomImage(12, 10),
                               randomImage(12, 11)};
    const int label = 2;

    auto loss_fn = [&]() -> Real {
        std::vector<Real> logits = model.inferLogits(model.encode(rgb));
        return softmaxMseLoss(logits, label).value;
    };

    model.zeroGrad();
    PropagationWorkspace &workspace = PropagationWorkspace::threadLocal();
    std::vector<Real> logits = model.trainForwardLogitsInPlace(rgb, workspace);
    LossResult lr = softmaxMseLoss(logits, label);
    model.backwardFromLogitsInPlace(lr.dlogits, workspace);

    auto params = model.params();
    ASSERT_EQ(params.size(), 3u);
    for (auto &p : params)
        checkParamGradient(p.value, *p.grad, loss_fn, {10, 70});
}

TEST(Gradients, TrainingReducesLossOnTinyProblem)
{
    // Overfit a 6-sample toy set; loss must drop substantially.
    SystemSpec spec = tinySpec(16);
    Rng rng(1);
    DonnModel model = ModelBuilder(spec, Laser{})
                          .diffractiveLayers(2, 1.0, &rng)
                          .detectorGrid(4, 3)
                          .build();

    ClassDataset data;
    data.num_classes = 4;
    for (int i = 0; i < 6; ++i) {
        data.images.push_back(randomImage(16, 100 + i));
        data.labels.push_back(i % 4);
    }

    TrainConfig cfg;
    cfg.epochs = 30;
    cfg.batch = 6;
    cfg.lr = 0.05;
    cfg.seed = 5;
    ClassificationTask task(model, data);
    auto history = Session(task, cfg).fit();
    EXPECT_LT(history.back().train_loss, history.front().train_loss * 0.7);
    EXPECT_GE(history.back().train_acc, 0.5);
}

} // namespace
} // namespace lightridge
