#include "core/skip.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/modulation_layer.hpp"

namespace lightridge {

OpticalSkipLayer::OpticalSkipLayer(std::shared_ptr<const Propagator> hop,
                                   std::vector<LayerPtr> inner, Real alpha,
                                   Real beta)
    : inner_(std::move(inner)), alpha_(alpha), beta_(beta)
{
    if (inner_.empty())
        throw std::invalid_argument("OpticalSkipLayer: empty block");
    PropagatorConfig config = hop->config();
    config.distance *=
        static_cast<Real>(std::max<std::size_t>(interiorHops(), 1));
    shortcut_ = std::make_shared<Propagator>(config);
}

OpticalSkipLayer::OpticalSkipLayer(const OpticalSkipLayer &other)
    : Layer(other), shortcut_(other.shortcut_), alpha_(other.alpha_),
      beta_(other.beta_)
{
    inner_.reserve(other.inner_.size());
    for (const LayerPtr &layer : other.inner_)
        inner_.push_back(layer->clone());
}

std::size_t
OpticalSkipLayer::interiorHops() const
{
    std::size_t hops = 0;
    for (const LayerPtr &layer : inner_) {
        if (dynamic_cast<const ModulationLayer *>(layer.get()) != nullptr)
            hops += 1;
        else if (auto *skip =
                     dynamic_cast<const OpticalSkipLayer *>(layer.get()))
            hops += skip->interiorHops();
    }
    return hops;
}

void
OpticalSkipLayer::forwardInPlace(Field &u, PropagationWorkspace &workspace)
{
    // The shortcut needs the block input after the branch has overwritten
    // u, so it is staged in a leased buffer held across the inner layers'
    // own workspace use (the arena supports nested leases).
    WorkspaceField shortcut(workspace, u.rows(), u.cols());
    std::copy(u.data(), u.data() + u.size(), shortcut->data());
    for (LayerPtr &layer : inner_)
        layer->forwardInPlace(u, workspace);
    shortcut_->forwardInto(shortcut.get(), shortcut.get(), workspace);

    for (std::size_t i = 0; i < u.size(); ++i)
        u[i] = alpha_ * u[i] + beta_ * shortcut.get()[i];
}

void
OpticalSkipLayer::inferInPlace(Field &u,
                               PropagationWorkspace &workspace) const
{
    WorkspaceField shortcut(workspace, u.rows(), u.cols());
    std::copy(u.data(), u.data() + u.size(), shortcut->data());
    for (const LayerPtr &layer : inner_)
        layer->inferInPlace(u, workspace);
    shortcut_->forwardInto(shortcut.get(), shortcut.get(), workspace);

    for (std::size_t i = 0; i < u.size(); ++i)
        u[i] = alpha_ * u[i] + beta_ * shortcut.get()[i];
}

LayerPtr
OpticalSkipLayer::clone() const
{
    return std::make_unique<OpticalSkipLayer>(*this);
}

void
OpticalSkipLayer::backwardInPlace(Field &g, PropagationWorkspace &workspace)
{
    // Stage the shortcut gradient before the branch unwind overwrites g.
    WorkspaceField g_short(workspace, g.rows(), g.cols());
    std::copy(g.data(), g.data() + g.size(), g_short->data());

    // Branch path: scale by alpha, then unwind the inner block.
    g *= alpha_;
    for (auto it = inner_.rbegin(); it != inner_.rend(); ++it)
        (*it)->backwardInPlace(g, workspace);

    // Shortcut path: adjoint of the bypass propagator.
    g_short.get() *= beta_;
    shortcut_->adjointInto(g_short.get(), g_short.get(), workspace);

    g += g_short.get();
}

std::vector<ParamView>
OpticalSkipLayer::params()
{
    std::vector<ParamView> all;
    for (LayerPtr &layer : inner_)
        for (ParamView p : layer->params())
            all.push_back(p);
    return all;
}

Json
OpticalSkipLayer::toJson() const
{
    Json j;
    j["kind"] = Json(kind());
    j["alpha"] = Json(alpha_);
    j["beta"] = Json(beta_);
    Json inner;
    for (const LayerPtr &layer : inner_)
        inner.push(layer->toJson());
    j["inner"] = std::move(inner);
    return j;
}

} // namespace lightridge
