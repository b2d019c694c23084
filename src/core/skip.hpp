/**
 * @file
 * Optical skip connection (Section 5.6.2, Figure 13a).
 *
 * A beam splitter diverts a fraction of the light around a block of
 * diffractive layers; mirrors route it over the equivalent free-space
 * distance and a second splitter recombines the two paths. Inspired by
 * ResNet residual blocks, the less-diffracted shortcut restores features
 * of the original input, improving segmentation detail. Energy is
 * conserved across the splitters: alpha^2 + beta^2 = 1.
 */
#pragma once

#include <memory>
#include <vector>

#include "core/layer.hpp"
#include "optics/propagator.hpp"

namespace lightridge {

/** Residual-style optical block: out = alpha*branch(in) + beta*P(in). */
class OpticalSkipLayer : public Layer
{
  public:
    /** Amplitude fraction of each path of a 50:50 splitter. */
    static constexpr Real kHalfSplit = 0.707106781186548;

    /**
     * @param hop the model's inter-plane hop; the shortcut P is this hop
     *        stretched over the block's optical path, hop distance times
     *        max(1, interiorHops())
     * @param inner the block the shortcut bypasses
     * @param alpha amplitude fraction through the block
     * @param beta amplitude fraction through the shortcut
     */
    OpticalSkipLayer(std::shared_ptr<const Propagator> hop,
                     std::vector<LayerPtr> inner,
                     Real alpha = kHalfSplit, Real beta = kHalfSplit);

    /** Deep copy of the block; the (immutable) shortcut is shared. */
    OpticalSkipLayer(const OpticalSkipLayer &other);

    std::string kind() const override { return "skip"; }

    void forwardInPlace(Field &u, PropagationWorkspace &workspace) override;
    void backwardInPlace(Field &g, PropagationWorkspace &workspace) override;
    void inferInPlace(Field &u,
                      PropagationWorkspace &workspace) const override;
    LayerPtr clone() const override;
    std::vector<ParamView> params() override;
    Json toJson() const override;

    std::size_t innerDepth() const { return inner_.size(); }
    Layer *innerLayer(std::size_t i) { return inner_[i].get(); }

  private:
    /**
     * Free-space hops through the block: a modulation layer counts one,
     * a nested skip its own interior, any other layer (layernorm) none.
     */
    std::size_t interiorHops() const;

    std::vector<LayerPtr> inner_;
    std::shared_ptr<const Propagator> shortcut_;
    Real alpha_;
    Real beta_;
};

} // namespace lightridge
