#include "core/diffractive_layer.hpp"

#include <cmath>
#include <cstring>

#include "optics/perturbation.hpp"

namespace lightridge {

DiffractiveLayer::DiffractiveLayer(
    std::shared_ptr<const Propagator> propagator, Real gamma, Rng *rng)
    : propagator_(std::move(propagator)), gamma_(gamma)
{
    const std::size_t n = propagator_->config().grid.n;
    phase_ = RealMap(n, n, 0.0);
    phase_grad_ = RealMap(n, n, 0.0);
    if (rng != nullptr) {
        // Full-range random phases: the standard DONN initialization
        // (phase is cyclic, so there is no "small init" advantage, and
        // full-range masks exercise the device's whole response curve).
        for (std::size_t i = 0; i < phase_.size(); ++i)
            phase_[i] = rng->uniform(0.0, kTwoPi);
    }
}

// The published table is immutable, so sharing the pointer is safe; the
// mutex is per-instance and starts fresh. Initializing in the member
// list (via publishedModulation(), which locks the source instance)
// keeps the constructor free of guarded-member writes.
DiffractiveLayer::DiffractiveLayer(const DiffractiveLayer &other)
    : propagator_(other.propagator_), gamma_(other.gamma_),
      phase_(other.phase_), phase_grad_(other.phase_grad_),
      infer_modulation_(other.publishedModulation())
{}

std::shared_ptr<const DiffractiveLayer::InferModulation>
DiffractiveLayer::publishedModulation() const
{
    MutexLock lock(infer_cache_mutex_);
    return infer_modulation_;
}

void
DiffractiveLayer::ensureModulation()
{
    const std::size_t size = phase_.size();
    if (modulation_.size() == size &&
        std::memcmp(modulation_phase_.data(), phase_.data(),
                    size * sizeof(Real)) == 0)
        return;
    ensureFieldShape(modulation_, phase_.rows(), phase_.cols());
    for (std::size_t i = 0; i < size; ++i)
        modulation_[i] = std::polar(Real(1), phase_[i]);
    modulation_phase_ = phase_;
}

void
DiffractiveLayer::forwardInPlace(Field &u, PropagationWorkspace &workspace)
{
    ensureModulation();
    const LayerPerturbation *p = perturb_;
    propagator_->forwardInto(u, cached_diffracted_, workspace,
                             p ? &p->hop : nullptr);
    ensureFieldShape(cached_out_, cached_diffracted_.rows(),
                     cached_diffracted_.cols());
    ensureFieldShape(u, cached_diffracted_.rows(),
                     cached_diffracted_.cols());
    if (p && p->has_noise) {
        // The phase screen multiplies into cached_out_ as well, so the
        // phase-gradient identity dL/dphi = Re(conj(G) * j * U_out) in
        // backwardInPlace() holds unchanged under noise.
        for (std::size_t i = 0; i < cached_out_.size(); ++i) {
            Complex v = gamma_ * cached_diffracted_[i] * modulation_[i] *
                        p->noise[i];
            cached_out_[i] = v;
            u[i] = v;
        }
        return;
    }
    for (std::size_t i = 0; i < cached_out_.size(); ++i) {
        Complex v = gamma_ * cached_diffracted_[i] * modulation_[i];
        cached_out_[i] = v;
        u[i] = v;
    }
}

std::shared_ptr<const DiffractiveLayer::InferModulation>
DiffractiveLayer::inferModulation() const
{
    MutexLock lock(infer_cache_mutex_);
    const std::size_t size = phase_.size();
    if (infer_modulation_ && infer_modulation_->table.size() == size &&
        std::memcmp(infer_modulation_->phase.data(), phase_.data(),
                    size * sizeof(Real)) == 0)
        return infer_modulation_;
    auto fresh = std::make_shared<InferModulation>();
    fresh->table = Field(phase_.rows(), phase_.cols());
    for (std::size_t i = 0; i < size; ++i)
        fresh->table[i] = std::polar(Real(1), phase_[i]);
    fresh->phase = phase_;
    infer_modulation_ = fresh;
    return fresh;
}

void
DiffractiveLayer::inferInPlace(Field &u,
                               PropagationWorkspace &workspace) const
{
    std::shared_ptr<const InferModulation> mod = inferModulation();
    const LayerPerturbation *p = perturb_;
    propagator_->forwardInto(u, u, workspace, p ? &p->hop : nullptr);
    const Field &table = mod->table;
    if (p && p->has_noise) {
        for (std::size_t i = 0; i < u.size(); ++i)
            u[i] = gamma_ * u[i] * table[i] * p->noise[i];
        return;
    }
    for (std::size_t i = 0; i < u.size(); ++i)
        u[i] = gamma_ * u[i] * table[i];
}

LayerPtr
DiffractiveLayer::clone() const
{
    return std::make_unique<DiffractiveLayer>(*this);
}

void
DiffractiveLayer::backwardInPlace(Field &g, PropagationWorkspace &workspace)
{
    ensureModulation();
    // dL/dphi = Re(conj(G_out) * j * U_out): the phase rotates the output
    // in the complex plane, so its gradient is the tangential component.
    for (std::size_t i = 0; i < phase_grad_.size(); ++i) {
        Complex tangent = kJ * cached_out_[i];
        phase_grad_[i] += std::real(std::conj(g[i]) * tangent);
    }

    const LayerPerturbation *p = perturb_;
    // G before modulation: G_diff = G_out * conj(gamma * e^{j phi}),
    // times conj(e^{j eps}) when a phase screen was applied.
    if (p && p->has_noise) {
        for (std::size_t i = 0; i < g.size(); ++i)
            g[i] = g[i] * gamma_ * std::conj(modulation_[i]) *
                   p->noise_conj[i];
    } else {
        for (std::size_t i = 0; i < g.size(); ++i)
            g[i] = g[i] * gamma_ * std::conj(modulation_[i]);
    }

    propagator_->adjointInto(g, g, workspace, p ? &p->hop : nullptr);
}

std::vector<ParamView>
DiffractiveLayer::params()
{
    return {ParamView{"phase", &phase_.raw(), &phase_grad_.raw()}};
}

Json
DiffractiveLayer::toJson() const
{
    Json j;
    j["kind"] = Json(kind());
    j["gamma"] = Json(gamma_);
    Json phases;
    for (std::size_t i = 0; i < phase_.size(); ++i)
        phases.push(Json(phase_[i]));
    j["phase"] = std::move(phases);
    return j;
}

std::unique_ptr<DiffractiveLayer>
DiffractiveLayer::fromJson(const Json &j,
                           std::shared_ptr<const Propagator> propagator)
{
    auto layer = std::make_unique<DiffractiveLayer>(
        std::move(propagator), j.numberOr("gamma", 1.0));
    const auto &phases = j.at("phase").asArray();
    if (phases.size() != layer->phase_.size())
        throw JsonError("diffractive layer phase size mismatch");
    for (std::size_t i = 0; i < phases.size(); ++i)
        layer->phase_[i] = phases[i].asNumber();
    return layer;
}

} // namespace lightridge
