/**
 * @file
 * Perturbation model implementation: spec parsing, quantization, and the
 * per-batch realization sampler (see perturbation.hpp for the physics).
 */
#include "optics/perturbation.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <stdexcept>

#include "optics/propagator.hpp"
#include "optics/workspace.hpp"

namespace lightridge {

namespace {

const char *
distName(ErrorDist::Kind kind)
{
    switch (kind) {
    case ErrorDist::Kind::Uniform:
        return "uniform";
    case ErrorDist::Kind::Gaussian:
        return "gaussian";
    case ErrorDist::Kind::None:
        break;
    }
    return "none";
}

ErrorDist::Kind
distFromName(const std::string &name, const std::string &where)
{
    if (name == "uniform")
        return ErrorDist::Kind::Uniform;
    if (name == "gaussian")
        return ErrorDist::Kind::Gaussian;
    if (name == "none")
        return ErrorDist::Kind::None;
    throw JsonError("unknown dist in " + where + ": " + name);
}

} // namespace

Real
ErrorDist::sample(Rng &rng) const
{
    if (!enabled())
        return 0.0;
    if (kind == Kind::Uniform)
        return rng.uniform(-scale, scale);
    return rng.normal(0.0, scale);
}

Real
ErrorDist::bound() const
{
    if (!enabled())
        return 0.0;
    return kind == Kind::Gaussian ? 3.0 * scale : scale;
}

Json
ErrorDist::toJson() const
{
    Json j;
    j["dist"] = distName(kind);
    j["scale"] = scale;
    return j;
}

ErrorDist
ErrorDist::fromJson(const Json &j, const std::string &where)
{
    expectKeys(j, {"dist", "scale"}, where);
    ErrorDist dist;
    dist.kind = distFromName(j.at("dist").asString(), where);
    dist.scale = j.at("scale").asNumber();
    if (dist.scale < 0.0)
        throw JsonError(where + ": scale must be >= 0");
    return dist;
}

bool
PerturbationSpec::active() const
{
    return enabled &&
           (lateral.enabled() || axial.enabled() || phase_sigma > 0.0);
}

Real
PerturbationSpec::quantizeAxial(Real dz) const
{
    if (!axial.enabled() || axial_levels < 2)
        return 0.0;
    const Real bound = axial.bound();
    dz = std::clamp(dz, -bound, bound);
    const Real step =
        2.0 * bound / static_cast<Real>(axial_levels - 1);
    return std::round((dz + bound) / step) * step - bound;
}

std::vector<Real>
PerturbationSpec::axialLevels() const
{
    if (!axial.enabled() || axial_levels < 2)
        return {0.0};
    const Real bound = axial.bound();
    const Real step =
        2.0 * bound / static_cast<Real>(axial_levels - 1);
    std::vector<Real> levels(axial_levels);
    for (std::size_t k = 0; k < axial_levels; ++k)
        levels[k] = -bound + static_cast<Real>(k) * step;
    return levels;
}

Json
PerturbationSpec::toJson() const
{
    Json j;
    j["enabled"] = enabled;
    if (lateral.kind != ErrorDist::Kind::None)
        j["lateral"] = lateral.toJson();
    if (axial.kind != ErrorDist::Kind::None) {
        Json a = axial.toJson();
        a["levels"] = axial_levels;
        j["axial"] = a;
    }
    if (phase_sigma > 0.0)
        j["phase_sigma"] = phase_sigma;
    return j;
}

PerturbationSpec
PerturbationSpec::fromJson(const Json &j)
{
    expectKeys(j, {"enabled", "lateral", "axial", "phase_sigma"},
               "perturbation");
    PerturbationSpec spec;
    if (j.has("enabled"))
        spec.enabled = j.at("enabled").asBool();
    if (j.has("lateral"))
        spec.lateral =
            ErrorDist::fromJson(j.at("lateral"), "perturbation.lateral");
    if (j.has("axial")) {
        const Json &a = j.at("axial");
        expectKeys(a, {"dist", "scale", "levels"}, "perturbation.axial");
        Json stripped;
        stripped["dist"] = a.at("dist");
        stripped["scale"] = a.at("scale");
        spec.axial = ErrorDist::fromJson(stripped, "perturbation.axial");
        if (a.has("levels"))
            spec.axial_levels =
                a.at("levels").asInteger("perturbation.axial.levels", 2);
    }
    if (j.has("phase_sigma")) {
        spec.phase_sigma = j.at("phase_sigma").asNumber();
        if (spec.phase_sigma < 0.0)
            throw JsonError("perturbation.phase_sigma must be >= 0");
    }
    return spec;
}

void
HopPerturbation::clear()
{
    dx = dy = dz = 0.0;
    has_shift = false;
    kernel.reset();
}

void
LayerPerturbation::clear()
{
    hop.clear();
    has_noise = false;
}

bool
PerturbationRealization::any() const
{
    if (final_hop.any())
        return true;
    for (const LayerPerturbation &layer : layers)
        if (layer.any())
            return true;
    return false;
}

void
PerturbationRealization::clear()
{
    for (LayerPerturbation &layer : layers)
        layer.clear();
    final_hop.clear();
}

void
fillHopPerturbation(const Propagator &prop, Real dx, Real dy, Real dz,
                    HopPerturbation &out)
{
    const PropagatorConfig &pc = prop.config();
    if (pc.approx == Diffraction::Fraunhofer)
        throw std::logic_error(
            "fillHopPerturbation: Fraunhofer hops have no convolution "
            "kernel to perturb");

    // Keep the perturbed distance physical (strictly positive).
    const Real min_dz = -0.5 * pc.distance;
    dz = std::max(dz, min_dz);

    out.dx = dx;
    out.dy = dy;
    out.dz = dz;

    const std::size_t padded_n = prop.paddedSize();
    const Grid padded{padded_n, pc.grid.pitch};

    if (dz != 0.0)
        out.kernel = acquireTransferFunction(pc.approx, pc.method, padded,
                                             pc.wavelength,
                                             pc.distance + dz);
    else
        out.kernel.reset();

    out.has_shift = (dx != 0.0 || dy != 0.0);
    if (out.has_shift) {
        out.ramp_row.resize(padded_n);
        out.ramp_col.resize(padded_n);
        for (std::size_t i = 0; i < padded_n; ++i) {
            const Real f = padded.freq(i);
            // Fourier shift theorem: multiplying the spectrum by
            // exp(-j 2 pi f d) translates the spatial field by +d.
            out.ramp_row[i] = std::polar<Real>(1.0, -kTwoPi * f * dy);
            out.ramp_col[i] = std::polar<Real>(1.0, -kTwoPi * f * dx);
        }
    }
}

PerturbationSampler::PerturbationSampler(
    PerturbationSpec spec, std::vector<const Propagator *> layer_hops,
    const Propagator *final_hop)
    : spec_(std::move(spec)), layer_hops_(std::move(layer_hops)),
      final_hop_(final_hop)
{
    for (const Propagator *prop : layer_hops_)
        if (prop && prop->config().approx == Diffraction::Fraunhofer)
            throw std::logic_error(
                "PerturbationSampler: Fraunhofer hops are not supported");
    if (final_hop_ && final_hop_->config().approx == Diffraction::Fraunhofer)
        throw std::logic_error(
            "PerturbationSampler: Fraunhofer hops are not supported");
}

void
PerturbationSampler::sampleHop(Rng &rng, const Propagator &prop,
                               HopPerturbation &out) const
{
    Real dx = 0.0;
    Real dy = 0.0;
    Real dz = 0.0;
    if (spec_.lateral.enabled()) {
        dx = spec_.lateral.sample(rng);
        dy = spec_.lateral.sample(rng);
    }
    if (spec_.axial.enabled())
        dz = spec_.quantizeAxial(spec_.axial.sample(rng));
    fillHopPerturbation(prop, dx, dy, dz, out);
}

void
PerturbationSampler::sample(std::uint64_t draw_seed,
                            PerturbationRealization &out) const
{
    Rng rng(draw_seed);
    out.layers.resize(layer_hops_.size());
    for (std::size_t i = 0; i < layer_hops_.size(); ++i) {
        LayerPerturbation &layer = out.layers[i];
        const Propagator *prop = layer_hops_[i];
        if (!prop) {
            layer.clear();
            continue;
        }
        sampleHop(rng, *prop, layer.hop);
        layer.has_noise = spec_.phase_sigma > 0.0;
        if (layer.has_noise) {
            const std::size_t n = prop->config().grid.n;
            ensureFieldShape(layer.noise, n, n);
            ensureFieldShape(layer.noise_conj, n, n);
            for (std::size_t u = 0; u < layer.noise.size(); ++u) {
                const Real eps = rng.normal(0.0, spec_.phase_sigma);
                const Complex phasor = std::polar<Real>(1.0, eps);
                layer.noise[u] = phasor;
                layer.noise_conj[u] = std::conj(phasor);
            }
        }
    }
    if (final_hop_)
        sampleHop(rng, *final_hop_, out.final_hop);
    else
        out.final_hop.clear();
}

} // namespace lightridge
