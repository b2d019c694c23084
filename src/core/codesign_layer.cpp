#include "core/codesign_layer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "optics/perturbation.hpp"

namespace lightridge {

CodesignLayer::CodesignLayer(std::shared_ptr<const Propagator> propagator,
                             DeviceLut lut, Real tau, Real gamma, Rng *rng)
    : ModulationLayer(std::move(propagator), gamma), lut_(std::move(lut)),
      tau_(tau), rng_(rng)
{
    if (lut_.size() == 0)
        throw std::invalid_argument("CodesignLayer: empty device LUT");
    if (tau_ <= 0)
        throw std::invalid_argument("CodesignLayer: tau must be positive");
    const std::size_t n = sideLength();
    logits_.assign(n * n * lut_.size(), 0.0);
    logits_grad_.assign(logits_.size(), 0.0);
}

CodesignLayer::CodesignLayer(const CodesignLayer &other)
    : ModulationLayer(other), lut_(other.lut_), tau_(other.tau_),
      rng_(other.rng_), logits_(other.logits_),
      logits_grad_(other.logits_grad_)
{}

void
CodesignLayer::unitSoftmax(std::size_t i, bool with_noise, Real *out)
{
    const std::size_t k = lut_.size();
    const Real *l = logits_.data() + i * k;
    Real best = -1e300;
    for (std::size_t j = 0; j < k; ++j) {
        Real v = l[j];
        if (with_noise && rng_ != nullptr)
            v += rng_->gumbel();
        out[j] = v / tau_;
        best = std::max(best, out[j]);
    }
    Real total = 0;
    for (std::size_t j = 0; j < k; ++j) {
        out[j] = std::exp(out[j] - best);
        total += out[j];
    }
    for (std::size_t j = 0; j < k; ++j)
        out[j] /= total;
}

const Field &
CodesignLayer::trainingModulation(bool sample, TablePtr &)
{
    if (!sample)
        return cached_modulation_;
    const std::size_t n = sideLength();
    const std::size_t k = lut_.size();
    ensureFieldShape(cached_modulation_, n, n);
    cached_probs_.resize(n * n * k);
    for (std::size_t i = 0; i < n * n; ++i) {
        Real *p = cached_probs_.data() + i * k;
        unitSoftmax(i, /*with_noise=*/true, p);
        Complex m{0, 0};
        for (std::size_t j = 0; j < k; ++j)
            m += p[j] * lut_.levels[j];
        cached_modulation_[i] = m;
    }
    return cached_modulation_;
}

void
CodesignLayer::buildTable(Field &table) const
{
    const std::size_t k = lut_.size();
    for (std::size_t i = 0; i < table.size(); ++i) {
        const Real *l = logits_.data() + i * k;
        std::size_t best = std::max_element(l, l + k) - l;
        table[i] = lut_.levels[best];
    }
}

LayerPtr
CodesignLayer::clone() const
{
    // The rng_ pointer is copied as-is; parallel trainers rewire each
    // replica to its own noise source via setRng().
    return std::make_unique<CodesignLayer>(*this);
}

void
CodesignLayer::accumulateGrad(const Field &g, const Field &)
{
    const std::size_t n = sideLength();
    const std::size_t k = lut_.size();
    const Field &diffracted = this->diffracted();
    const LayerPerturbation *pert = perturbation();
    const bool noisy = pert && pert->has_noise;
    std::vector<Real> dldp(k);
    for (std::size_t i = 0; i < n * n; ++i) {
        // dL/dp_j = Re(conj(G_out) * gamma * U_diff * e^{j eps} * m_j)
        Complex base = gamma() * diffracted[i];
        if (noisy)
            base *= pert->noise[i];
        Complex gc = std::conj(g[i]);
        Real inner = 0;
        const Real *p = cached_probs_.data() + i * k;
        for (std::size_t j = 0; j < k; ++j) {
            dldp[j] = std::real(gc * base * lut_.levels[j]);
            inner += p[j] * dldp[j];
        }
        // Softmax Jacobian with the 1/tau factor of the relaxation.
        Real *lg = logits_grad_.data() + i * k;
        for (std::size_t j = 0; j < k; ++j)
            lg[j] += p[j] * (dldp[j] - inner) / tau_;
    }
}

std::vector<ParamView>
CodesignLayer::params()
{
    return {ParamView{"logits", &logits_, &logits_grad_}};
}

std::vector<std::size_t>
CodesignLayer::levelIndices() const
{
    const std::size_t n = sideLength();
    const std::size_t k = lut_.size();
    std::vector<std::size_t> out(n * n);
    for (std::size_t i = 0; i < n * n; ++i) {
        const Real *l = logits_.data() + i * k;
        out[i] = std::max_element(l, l + k) - l;
    }
    return out;
}

void
CodesignLayer::initFromPhase(const RealMap &phase, Real confidence)
{
    const std::size_t n = sideLength();
    const std::size_t k = lut_.size();
    if (phase.size() != n * n)
        throw std::invalid_argument("initFromPhase: shape mismatch");
    for (std::size_t i = 0; i < n * n; ++i) {
        std::size_t best = lut_.nearestPhase(phase[i]);
        Real *l = logits_.data() + i * k;
        std::fill(l, l + k, Real(0));
        l[best] = confidence;
    }
}

Json
CodesignLayer::toJson() const
{
    Json j;
    j["kind"] = Json(kind());
    j["gamma"] = Json(gamma());
    j["tau"] = Json(tau_);
    Json lut;
    for (const Complex &m : lut_.levels) {
        Json entry;
        entry.push(Json(m.real()));
        entry.push(Json(m.imag()));
        lut.push(std::move(entry));
    }
    j["lut"] = std::move(lut);
    Json logits;
    for (Real v : logits_)
        logits.push(Json(v));
    j["logits"] = std::move(logits);
    return j;
}

} // namespace lightridge
