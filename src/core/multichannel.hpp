/**
 * @file
 * Multi-channel RGB-DONN architecture (Section 5.6.1, Figure 12).
 *
 * The input RGB image is split into three grayscale channel images; a
 * beam splitter feeds three parallel optical stacks; their output beams
 * project onto one shared detector where intensities merge (incoherent
 * sum) for the final prediction. All channels train against the same
 * shared loss.
 */
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "core/model.hpp"

namespace lightridge {

/** Three parallel DONN stacks merging on one detector. */
class MultiChannelDonn
{
  public:
    /**
     * @param channels per-channel stacks (same spec); detector geometry
     *        is taken from the first channel's detector.
     */
    explicit MultiChannelDonn(
        std::vector<std::unique_ptr<DonnModel>> channels);

    std::size_t numChannels() const { return channels_.size(); }
    DonnModel &channel(std::size_t i) { return *channels_[i]; }
    const DonnModel &channel(std::size_t i) const { return *channels_[i]; }

    /** Encode one RGB sample into per-channel input fields. */
    std::vector<Field> encode(const std::array<RealMap, 3> &rgb) const;

    /**
     * In-place training forward for the zero-allocation pipeline:
     * encodes each channel directly into its persistent activation
     * buffer, propagates in place, and reads the merged logits — no
     * per-sample Field allocations in steady state.
     */
    std::vector<Real>
    trainForwardLogitsInPlace(const std::array<RealMap, 3> &rgb,
                              PropagationWorkspace &workspace);

    /** Backprop the shared dL/dlogits of the last
     *  trainForwardLogitsInPlace() into every channel. */
    void backwardFromLogitsInPlace(const std::vector<Real> &dlogits,
                                   PropagationWorkspace &workspace);

    /**
     * Thread-safe merged inference logits: const and cache-free, so
     * independent samples can be evaluated concurrently.
     */
    std::vector<Real> inferLogits(const std::vector<Field> &inputs) const;

    std::vector<ParamView> params();
    void zeroGrad();

    /**
     * Deep copy: every channel stack is cloned (see DonnModel::clone;
     * propagators shared). Replicas train independently; the
     * data-parallel RgbTask builds one per worker past worker 0.
     */
    MultiChannelDonn clone() const;

    /** Serialize every channel stack. */
    Json toJson() const;

    /** Reconstruct from toJson() output. */
    static MultiChannelDonn fromJson(const Json &j);

    /** Save/load helpers. */
    bool save(const std::string &path) const;
    static MultiChannelDonn load(const std::string &path);

  private:
    std::vector<std::unique_ptr<DonnModel>> channels_;
    std::vector<Field> cached_fields_;
};

/** Top-k accuracy helper for Table 5 (top-1/3/5). */
bool topKContains(const std::vector<Real> &logits, int target,
                  std::size_t k);

} // namespace lightridge
