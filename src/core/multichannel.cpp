#include "core/multichannel.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace lightridge {

MultiChannelDonn::MultiChannelDonn(
    std::vector<std::unique_ptr<DonnModel>> channels)
    : channels_(std::move(channels))
{
    if (channels_.empty())
        throw std::invalid_argument("MultiChannelDonn: no channels");
    for (const auto &ch : channels_)
        if (ch->detector().numClasses() !=
            channels_[0]->detector().numClasses())
            throw std::invalid_argument(
                "MultiChannelDonn: detector class count mismatch");
}

std::vector<Field>
MultiChannelDonn::encode(const std::array<RealMap, 3> &rgb) const
{
    std::vector<Field> fields;
    fields.reserve(channels_.size());
    for (std::size_t ch = 0; ch < channels_.size(); ++ch)
        fields.push_back(channels_[ch]->encode(rgb[ch % 3]));
    return fields;
}

std::vector<Real>
MultiChannelDonn::trainForwardLogitsInPlace(
    const std::array<RealMap, 3> &rgb, PropagationWorkspace &workspace)
{
    std::vector<Real> logits(channels_[0]->detector().numClasses(), 0.0);
    cached_fields_.resize(channels_.size());
    for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
        // The persistent activation cache doubles as the flow buffer:
        // encode into it, propagate in place, and leave it holding the
        // detector-plane field the backward pass needs.
        Field &u = cached_fields_[ch];
        channels_[ch]->encodeInto(rgb[ch % 3], u);
        channels_[ch]->forwardFieldInPlace(u, /*training=*/true,
                                           workspace);
        std::vector<Real> part = channels_[ch]->detector().readout(u);
        for (std::size_t k = 0; k < logits.size(); ++k)
            logits[k] += part[k];
    }
    return logits;
}

void
MultiChannelDonn::backwardFromLogitsInPlace(
    const std::vector<Real> &dlogits, PropagationWorkspace &workspace)
{
    if (cached_fields_.size() != channels_.size())
        throw std::logic_error("MultiChannelDonn: backward before forward");
    for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
        const Field &u = cached_fields_[ch];
        WorkspaceField g(workspace, u.rows(), u.cols());
        channels_[ch]->detector().backwardForInto(u, dlogits, g.get());
        channels_[ch]->backwardFieldInPlace(g.get(), workspace);
    }
}

std::vector<Real>
MultiChannelDonn::inferLogits(const std::vector<Field> &inputs) const
{
    if (inputs.size() != channels_.size())
        throw std::invalid_argument("MultiChannelDonn: input count mismatch");
    std::vector<Real> logits(channels_[0]->detector().numClasses(), 0.0);
    for (std::size_t ch = 0; ch < channels_.size(); ++ch) {
        Field u = channels_[ch]->inferField(inputs[ch]);
        std::vector<Real> part = channels_[ch]->detector().readout(u);
        for (std::size_t k = 0; k < logits.size(); ++k)
            logits[k] += part[k];
    }
    return logits;
}

std::vector<ParamView>
MultiChannelDonn::params()
{
    std::vector<ParamView> all;
    for (auto &ch : channels_)
        for (ParamView p : ch->params())
            all.push_back(p);
    return all;
}

void
MultiChannelDonn::zeroGrad()
{
    for (auto &ch : channels_)
        ch->zeroGrad();
}

MultiChannelDonn
MultiChannelDonn::clone() const
{
    std::vector<std::unique_ptr<DonnModel>> copies;
    copies.reserve(channels_.size());
    for (const auto &ch : channels_)
        copies.push_back(std::make_unique<DonnModel>(ch->clone()));
    return MultiChannelDonn(std::move(copies));
}

Json
MultiChannelDonn::toJson() const
{
    Json channels;
    for (const auto &ch : channels_)
        channels.push(ch->toJson());
    Json j;
    j["channels"] = std::move(channels);
    return j;
}

MultiChannelDonn
MultiChannelDonn::fromJson(const Json &j)
{
    std::vector<std::unique_ptr<DonnModel>> channels;
    for (const Json &cj : j.at("channels").asArray())
        channels.push_back(
            std::make_unique<DonnModel>(DonnModel::fromJson(cj)));
    return MultiChannelDonn(std::move(channels));
}

bool
MultiChannelDonn::save(const std::string &path) const
{
    Json j = toJson();
    addCheckpointHeader(j);
    return j.save(path);
}

MultiChannelDonn
MultiChannelDonn::load(const std::string &path)
{
    return fromJson(loadCheckpointJson(path));
}

bool
topKContains(const std::vector<Real> &logits, int target, std::size_t k)
{
    std::vector<std::size_t> order(logits.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::partial_sort(order.begin(),
                      order.begin() + std::min(k, order.size()), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          return logits[a] > logits[b];
                      });
    for (std::size_t i = 0; i < std::min(k, order.size()); ++i)
        if (static_cast<int>(order[i]) == target)
            return true;
    return false;
}

} // namespace lightridge
