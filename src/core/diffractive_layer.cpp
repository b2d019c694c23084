#include "core/diffractive_layer.hpp"

#include <cmath>

#include "optics/perturbation.hpp"

namespace lightridge {

DiffractiveLayer::DiffractiveLayer(
    std::shared_ptr<const Propagator> propagator, Real gamma, Rng *rng)
    : ModulationLayer(std::move(propagator), gamma)
{
    const std::size_t n = sideLength();
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

void
DiffractiveLayer::buildTable(Field &table) const
{
    for (std::size_t i = 0; i < phase_.size(); ++i)
        table[i] = std::polar(Real(1), phase_[i]);
}

namespace {

/**
 * a * b as std::complex computes it for finite operands, without the
 * branch to its non-finite recovery, so the gradient loop runs
 * straight-line (a non-finite step fails the Session's checks anyway).
 */
inline Complex
mulFinite(Complex a, Complex b)
{
    return {a.real() * b.real() - a.imag() * b.imag(),
            a.real() * b.imag() + a.imag() * b.real()};
}

} // namespace

void
DiffractiveLayer::accumulateGrad(const Field &g, const Field &m)
{
    // dL/dphi = Re(conj(G_out) * j * U_out): the phase rotates the output
    // in the complex plane, so its gradient is the tangential component.
    // U_out is recomputed bit for bit as the forward formed it.
    const Field &diffracted = this->diffracted();
    const LayerPerturbation *p = perturbation();
    const Real gamma = this->gamma();
    const bool noisy = p && p->has_noise;
    for (std::size_t i = 0; i < phase_grad_.size(); ++i) {
        Complex out = mulFinite(gamma * diffracted[i], m[i]);
        if (noisy)
            out = mulFinite(out, p->noise[i]);
        const Complex tangent = mulFinite(kJ, out);
        phase_grad_[i] +=
            g[i].real() * tangent.real() + g[i].imag() * tangent.imag();
    }
}

LayerPtr
DiffractiveLayer::clone() const
{
    return std::make_unique<DiffractiveLayer>(*this);
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
    j["gamma"] = Json(gamma());
    Json phases;
    for (std::size_t i = 0; i < phase_.size(); ++i)
        phases.push(Json(phase_[i]));
    j["phase"] = std::move(phases);
    return j;
}

} // namespace lightridge
