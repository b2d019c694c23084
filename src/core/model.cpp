#include "core/model.hpp"

#include <cmath>
#include <stdexcept>

#include "core/layer_norm.hpp"
#include "core/skip.hpp"
#include "optics/perturbation.hpp"

namespace lightridge {

void
addCheckpointHeader(Json &j)
{
    j["format"] = Json(kCheckpointMagic);
    j["version"] = Json(kCheckpointVersion);
}

void
verifyCheckpointHeader(const Json &j, const std::string &origin)
{
    if (!j.isObject())
        throw JsonError("checkpoint " + origin +
                        ": not a JSON object (truncated or wrong file?)");
    if (!j.has("format"))
        return; // legacy headerless checkpoint: accepted as version 0
    if (!j.at("format").isString())
        throw JsonError("checkpoint " + origin +
                        ": malformed header (\"format\" is not a string)");
    const std::string &magic = j.at("format").asString();
    if (magic != kCheckpointMagic)
        throw JsonError("checkpoint " + origin +
                        ": wrong magic \"" + magic +
                        "\" (expected \"" + kCheckpointMagic + "\")");
    if (!j.has("version") || !j.at("version").isNumber())
        throw JsonError("checkpoint " + origin +
                        ": malformed header (missing \"version\")");
    const std::uint64_t version =
        j.at("version").asInteger("checkpoint " + origin + ": version");
    if (version < 1 || version > kCheckpointVersion)
        throw JsonError("checkpoint " + origin + ": unsupported version " +
                        std::to_string(version) + " (this build reads <= " +
                        std::to_string(kCheckpointVersion) + ")");
}

Json
loadCheckpointJson(const std::string &path)
{
    Json j;
    try {
        j = Json::load(path);
    } catch (const JsonError &e) {
        throw JsonError("checkpoint " + path +
                        ": unreadable or truncated (" + e.what() + ")");
    }
    verifyCheckpointHeader(j, path);
    return j;
}

Json
SystemSpec::toJson() const
{
    Json j;
    j["size"] = Json(size);
    j["pixel"] = Json(pixel);
    j["distance"] = Json(distance);
    j["approx"] = Json(static_cast<int>(approx));
    j["method"] = Json(static_cast<int>(method));
    j["pad_factor"] = Json(pad_factor);
    return j;
}

SystemSpec
SystemSpec::fromJson(const Json &j)
{
    SystemSpec spec;
    spec.size = j.at("size").asInteger("spec.size", 1);
    spec.pixel = j.at("pixel").asNumber();
    spec.distance = j.at("distance").asNumber();
    spec.approx = static_cast<Diffraction>(j.at("approx").asInteger(
        "spec.approx", 0, static_cast<int>(Diffraction::Fraunhofer)));
    spec.method = static_cast<PropagationMethod>(j.at("method").asInteger(
        "spec.method", 0,
        static_cast<int>(PropagationMethod::ImpulseResponse)));
    spec.pad_factor = j.at("pad_factor").asInteger("spec.pad_factor", 1);
    return spec;
}

namespace {

Json
regionsToJson(const std::vector<DetectorRegion> &regions)
{
    Json out;
    for (const DetectorRegion &reg : regions) {
        Json r;
        r["r0"] = Json(reg.r0);
        r["c0"] = Json(reg.c0);
        r["h"] = Json(reg.h);
        r["w"] = Json(reg.w);
        out.push(std::move(r));
    }
    return out;
}

/** Regions of `field`; each must fit inside the n-by-n detector plane. */
std::vector<DetectorRegion>
regionsFromJson(const Json &j, std::size_t n, const std::string &field)
{
    std::vector<DetectorRegion> regions;
    const Json::Array &list = j.asArray();
    for (std::size_t i = 0; i < list.size(); ++i) {
        const Json &r = list[i];
        const std::string at = field + "[" + std::to_string(i) + "].";
        DetectorRegion reg;
        reg.r0 = r.at("r0").asInteger(at + "r0", 0, n - 1);
        reg.c0 = r.at("c0").asInteger(at + "c0", 0, n - 1);
        reg.h = r.at("h").asInteger(at + "h", 1, n - reg.r0);
        reg.w = r.at("w").asInteger(at + "w", 1, n - reg.c0);
        regions.push_back(reg);
    }
    return regions;
}

/** `values`, a JSON array of `size` numbers, into `into`; `what` names
 *  the array in errors. */
void
loadReals(const Json &values, Real *into, std::size_t size,
          const std::string &what)
{
    const Json::Array &list = values.asArray();
    if (list.size() != size)
        throw JsonError(what + " must hold " + std::to_string(size) +
                        " numbers, got " + std::to_string(list.size()));
    for (std::size_t i = 0; i < size; ++i)
        into[i] = list[i].asNumber();
}

/** An entry's `count` (default 1), which is 1 when it carries `params`. */
std::size_t
layerCount(const Json &entry, const char *params, const std::string &where)
{
    const std::size_t count =
        entry.has("count") ? entry.at("count").asInteger(where + " count", 1)
                           : 1;
    if (count != 1 && entry.has(params))
        throw JsonError(where + ": count must be 1 beside \"" +
                        std::string(params) + "\"");
    return count;
}

/** Most levels a codesign entry may ask for, as `levels` or as a `lut`'s
 *  length: the 8-bit count SlmDevice models by default. A layer holds
 *  n * n * levels logits, so an unbounded count fails in the allocator
 *  with an error that names no key. */
constexpr std::size_t kMaxCodesignLevels = 256;

/**
 * The one reader of layer entries, from a spec or a checkpoint. It checks
 * the entry's kind, keys and values and, when `out` is set, appends its
 * layers over `hop`: an entry that carries its parameters loads them into
 * one layer, an entry without them draws `count` layers from `rng` (a null
 * `rng`, a checkpoint load, makes the missing parameters an error). A skip
 * reads its interior through this same function.
 */
void
readLayer(const Json &entry, const std::shared_ptr<const Propagator> &hop,
          Rng *rng, std::vector<LayerPtr> *out)
{
    if (!entry.isObject() || !entry.has("kind"))
        throw JsonError("layer entry without \"kind\"");
    const std::string &kind = entry.at("kind").asString();
    const std::string where = kind + " layer";
    if (kind == "diffractive") {
        expectKeys(entry, {"kind", "count", "gamma", "phase"}, where);
        const std::size_t count = layerCount(entry, "phase", where);
        const Real gamma = entry.numberOr("gamma", 1.0);
        const bool carried = entry.has("phase") || rng == nullptr;
        for (std::size_t i = 0; out != nullptr && i < count; ++i) {
            auto layer = std::make_unique<DiffractiveLayer>(
                hop, gamma, carried ? nullptr : rng);
            std::vector<Real> &phase = layer->phase().raw();
            if (carried)
                loadReals(entry.at("phase"), phase.data(), phase.size(),
                          where + " phase");
            out->push_back(std::move(layer));
        }
    } else if (kind == "codesign") {
        expectKeys(entry,
                   {"kind", "count", "levels", "lut", "tau", "gamma",
                    "logits"},
                   where);
        const std::size_t count = layerCount(entry, "logits", where);
        const Real tau = entry.numberOr("tau", 1.0);
        if (!(tau > 0))
            throw JsonError(where + ": tau must be > 0");
        const Real gamma = entry.numberOr("gamma", 1.0);
        const std::size_t levels =
            entry.has("levels")
                ? entry.at("levels").asInteger(where + " levels", 1,
                                               kMaxCodesignLevels)
                : 16;
        DeviceLut lut;
        if (entry.has("lut")) {
            if (entry.has("levels"))
                throw JsonError(where + ": levels beside lut");
            const Json::Array &lut_entries = entry.at("lut").asArray();
            if (lut_entries.size() > kMaxCodesignLevels)
                throw JsonError(where + ": lut must hold at most " +
                                std::to_string(kMaxCodesignLevels) +
                                " levels, got " +
                                std::to_string(lut_entries.size()));
            for (const Json &level : lut_entries) {
                const Json::Array &pair = level.asArray();
                if (pair.size() != 2)
                    throw JsonError(where + " lut entry must be [re, im], "
                                    "got " + std::to_string(pair.size()) +
                                    " values");
                lut.levels.emplace_back(pair[0].asNumber(),
                                        pair[1].asNumber());
            }
            if (lut.size() == 0)
                throw JsonError(where + ": lut must not be empty");
        } else if (out != nullptr) {
            lut = DeviceLut::idealPhase(levels);
        }
        const bool carried = entry.has("logits") || rng == nullptr;
        for (std::size_t i = 0; out != nullptr && i < count; ++i) {
            auto layer =
                std::make_unique<CodesignLayer>(hop, lut, tau, gamma, rng);
            std::vector<Real> &logits = *layer->params().front().value;
            if (carried)
                loadReals(entry.at("logits"), logits.data(), logits.size(),
                          where + " logits");
            out->push_back(std::move(layer));
        }
    } else if (kind == "fixed") {
        expectKeys(entry, {"kind", "modulation"}, where);
        if (!entry.has("modulation"))
            throw JsonError(where + " requires \"modulation\"");
        if (out != nullptr) {
            const std::size_t n = hop->config().grid.n;
            Field table(n, n);
            // A std::complex array may be read as its interleaved {re, im}
            // reals ([complex.numbers]), the order toJson() saves.
            loadReals(entry.at("modulation"),
                      reinterpret_cast<Real *>(table.data()),
                      2 * table.size(), where + " modulation");
            out->push_back(std::make_unique<FixedModulationLayer>(
                hop, std::move(table)));
        }
    } else if (kind == "layernorm") {
        expectKeys(entry, {"kind", "eps", "subtract_mean"}, where);
        const Real eps = entry.numberOr("eps", 1e-12);
        if (!(eps > 0 && std::isfinite(eps)))
            throw JsonError(where + ": eps must be a finite number > 0");
        const bool subtract_mean = entry.has("subtract_mean") &&
                                   entry.at("subtract_mean").asBool();
        if (out != nullptr)
            out->push_back(
                std::make_unique<LayerNormLayer>(eps, subtract_mean));
    } else if (kind == "skip") {
        expectKeys(entry, {"kind", "inner", "alpha", "beta"}, where);
        const Real alpha =
            entry.numberOr("alpha", OpticalSkipLayer::kHalfSplit);
        const Real beta = entry.numberOr("beta", OpticalSkipLayer::kHalfSplit);
        const Json::Array &entries = entry.at("inner").asArray();
        if (entries.empty())
            throw JsonError(where + ": inner must not be empty");
        std::vector<LayerPtr> inner;
        for (const Json &inner_entry : entries)
            readLayer(inner_entry, hop, rng,
                      out != nullptr ? &inner : nullptr);
        if (out != nullptr)
            out->push_back(std::make_unique<OpticalSkipLayer>(
                hop, std::move(inner), alpha, beta));
    } else {
        throw JsonError("unknown layer kind: " + kind);
    }
}

} // namespace

DonnModel::DonnModel(SystemSpec spec, Laser laser)
    : spec_(spec), laser_(laser)
{
    PropagatorConfig config;
    config.grid = spec_.grid();
    config.wavelength = laser_.wavelength;
    config.distance = spec_.distance;
    config.approx = spec_.approx;
    config.method = spec_.method;
    config.pad_factor = spec_.pad_factor;
    propagator_ = std::make_shared<Propagator>(config);
    source_profile_ = sourceProfile(laser_, spec_.grid());
}

void
checkLayersJson(const Json &entries)
{
    for (const Json &entry : entries.asArray())
        readLayer(entry, nullptr, nullptr, nullptr);
}

void
DonnModel::addLayer(LayerPtr layer)
{
    layers_.push_back(std::move(layer));
}

void
DonnModel::addLayers(const Json &entries, Rng *rng)
{
    checkLayersJson(entries);
    for (const Json &entry : entries.asArray())
        readLayer(entry, propagator_, rng, &layers_);
}

void
DonnModel::setDetector(DetectorPlane detector)
{
    detector_ = std::move(detector);
}

Field
DonnModel::encode(const RealMap &image) const
{
    Field out;
    encodeInto(image, out);
    return out;
}

void
DonnModel::encodeInto(const RealMap &image, Field &out) const
{
    const Grid grid = spec_.grid();
    ensureFieldShape(out, grid.n, grid.n);
    auto window = [&](const RealMap &img) {
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = source_profile_[i] * Complex{img[i], 0};
    };
    if (image.rows() == grid.n && image.cols() == grid.n) {
        window(image);
        return;
    }
    RealMap resized = resizeBilinear(image, grid.n, grid.n);
    window(resized);
}

void
DonnModel::forwardFieldInPlace(Field &u, bool training,
                               PropagationWorkspace &workspace)
{
    if (!training) {
        inferFieldInPlace(u, workspace);
        return;
    }
    for (LayerPtr &layer : layers_)
        layer->forwardInPlace(u, workspace);
    propagator_->forwardInto(u, u, workspace,
                             perturb_ ? &perturb_->final_hop : nullptr);
}

Field
DonnModel::inferField(const Field &input) const
{
    Field u = input;
    inferFieldInPlace(u, PropagationWorkspace::threadLocal());
    return u;
}

void
DonnModel::inferFieldInPlace(Field &u, PropagationWorkspace &workspace) const
{
    for (const LayerPtr &layer : layers_)
        layer->inferInPlace(u, workspace);
    propagator_->forwardInto(u, u, workspace,
                             perturb_ ? &perturb_->final_hop : nullptr);
}

std::vector<Field>
DonnModel::forwardFieldBatch(const std::vector<Field> &inputs,
                             ThreadPool *pool) const
{
    std::vector<Field> outputs(inputs.size());
    if (pool == nullptr)
        pool = &ThreadPool::global();
    pool->parallelFor(inputs.size(), [&](std::size_t i) {
        // Each pool worker leases scratch from its own thread-local
        // arena, so concurrent samples never contend on buffers.
        outputs[i] = inputs[i];
        inferFieldInPlace(outputs[i], PropagationWorkspace::threadLocal());
    });
    return outputs;
}

void
DonnModel::backwardFromLogitsInPlace(const std::vector<Real> &dlogits,
                                     Field &g,
                                     PropagationWorkspace &workspace)
{
    detector_.backwardInto(dlogits, g);
    backwardFieldInPlace(g, workspace);
}

std::vector<Real>
DonnModel::forwardLogitsInPlace(Field &u, bool training,
                                PropagationWorkspace &workspace)
{
    if (!training)
        return inferLogitsInPlace(u, workspace);
    forwardFieldInPlace(u, /*training=*/true, workspace);
    if (detector_.numClasses() == 0)
        throw std::logic_error("DonnModel: detector not configured");
    return detector_.forward(u);
}

std::vector<Real>
DonnModel::inferLogitsInPlace(Field &u,
                              PropagationWorkspace &workspace) const
{
    inferFieldInPlace(u, workspace);
    if (detector_.numClasses() == 0)
        throw std::logic_error("DonnModel: detector not configured");
    return detector_.readout(u);
}

void
DonnModel::backwardFieldInPlace(Field &g, PropagationWorkspace &workspace)
{
    propagator_->adjointInto(g, g, workspace,
                             perturb_ ? &perturb_->final_hop : nullptr);
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        (*it)->backwardInPlace(g, workspace);
}

void
DonnModel::setPerturbation(const PerturbationRealization *realization)
{
    perturb_ = realization;
    for (std::size_t i = 0; i < layers_.size(); ++i) {
        const LayerPerturbation *lp =
            (realization && i < realization->layers.size())
                ? &realization->layers[i]
                : nullptr;
        layers_[i]->setPerturbation(lp);
    }
}

DonnModel::DonnModel(SystemSpec spec, Laser laser,
                     std::shared_ptr<const Propagator> propagator)
    : spec_(spec), laser_(laser), propagator_(std::move(propagator))
{}

DonnModel
DonnModel::clone() const
{
    DonnModel copy(spec_, laser_, propagator_); // share, don't rebuild
    copy.source_profile_ = source_profile_;     // immutable, copy not rebuild
    copy.layers_.reserve(layers_.size());
    for (const LayerPtr &layer : layers_)
        copy.layers_.push_back(layer->clone());
    copy.detector_ = detector_;
    return copy;
}

std::vector<ParamView>
DonnModel::params()
{
    std::vector<ParamView> all;
    for (LayerPtr &layer : layers_)
        for (ParamView p : layer->params())
            all.push_back(p);
    return all;
}

void
DonnModel::zeroGrad()
{
    for (LayerPtr &layer : layers_)
        layer->zeroGrad();
}

Json
DonnModel::toJson() const
{
    Json j;
    j["spec"] = spec_.toJson();
    Json laser;
    laser["wavelength"] = Json(laser_.wavelength);
    laser["profile"] = Json(static_cast<int>(laser_.profile));
    laser["waist"] = Json(laser_.waist);
    laser["power_watts"] = Json(laser_.power_watts);
    j["laser"] = std::move(laser);

    Json layers;
    for (const LayerPtr &layer : layers_)
        layers.push(layer->toJson());
    j["layers"] = std::move(layers);

    Json det;
    det["amp_factor"] = Json(detector_.ampFactor());
    det["regions"] = regionsToJson(detector_.regions());
    if (detector_.differential()) {
        det["mode"] = Json("differential");
        det["neg_regions"] = regionsToJson(detector_.negRegions());
    }
    j["detector"] = std::move(det);
    return j;
}

DonnModel
DonnModel::fromJson(const Json &j)
{
    SystemSpec spec = SystemSpec::fromJson(j.at("spec"));
    Laser laser;
    const Json &lj = j.at("laser");
    laser.wavelength = lj.at("wavelength").asNumber();
    laser.profile = static_cast<BeamProfile>(lj.at("profile").asInteger(
        "laser.profile", 0, static_cast<int>(BeamProfile::Bessel)));
    laser.waist = lj.numberOr("waist", 0.0);
    laser.power_watts = lj.numberOr("power_watts", 5e-3);

    DonnModel model(spec, laser);
    model.addLayers(j.at("layers"), nullptr);

    if (j.has("detector")) {
        const Json &det = j.at("detector");
        std::vector<DetectorRegion> regions =
            regionsFromJson(det.at("regions"), spec.size, "detector.regions");
        const bool differential =
            det.has("mode") && det.at("mode").asString() == "differential";
        if (!regions.empty() && differential) {
            model.setDetector(DetectorPlane(
                std::move(regions),
                regionsFromJson(det.at("neg_regions"), spec.size,
                                "detector.neg_regions"),
                det.numberOr("amp_factor", 1.0)));
        } else if (!regions.empty()) {
            model.setDetector(DetectorPlane(std::move(regions),
                                            det.numberOr("amp_factor", 1.0)));
        }
    }
    return model;
}

bool
DonnModel::save(const std::string &path) const
{
    Json j = toJson();
    addCheckpointHeader(j);
    return j.save(path);
}

DonnModel
DonnModel::load(const std::string &path)
{
    return fromJson(loadCheckpointJson(path));
}

ModelBuilder::ModelBuilder(SystemSpec spec, Laser laser)
    : model_(spec, laser)
{}

ModelBuilder &
ModelBuilder::diffractiveLayers(std::size_t d, Real gamma, Rng *rng)
{
    for (std::size_t i = 0; i < d; ++i)
        model_.addLayer(std::make_unique<DiffractiveLayer>(
            model_.hopPropagator(), gamma, rng));
    return *this;
}

ModelBuilder &
ModelBuilder::codesignLayers(std::size_t d, const DeviceLut &lut, Real tau,
                             Real gamma, Rng *rng)
{
    for (std::size_t i = 0; i < d; ++i)
        model_.addLayer(std::make_unique<CodesignLayer>(
            model_.hopPropagator(), lut, tau, gamma, rng));
    return *this;
}

ModelBuilder &
ModelBuilder::layerNorm()
{
    model_.addLayer(std::make_unique<LayerNormLayer>());
    return *this;
}

ModelBuilder &
ModelBuilder::detectorGrid(std::size_t num_classes, std::size_t det_size)
{
    model_.setDetector(DetectorPlane(
        DetectorPlane::gridLayout(model_.spec().size, num_classes, det_size)));
    has_detector_ = true;
    return *this;
}

ModelBuilder &
ModelBuilder::detectorRegions(std::vector<DetectorRegion> regions)
{
    model_.setDetector(DetectorPlane(std::move(regions)));
    has_detector_ = true;
    return *this;
}

DonnModel
ModelBuilder::build()
{
    if (!has_detector_)
        throw std::logic_error(
            "ModelBuilder::build: no detector configured; call "
            "detectorGrid() or detectorRegions() before build()");
    return std::move(model_);
}

} // namespace lightridge
