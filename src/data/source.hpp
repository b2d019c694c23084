/**
 * @file
 * Polymorphic training-data sources and the deterministic two-level
 * epoch shuffle.
 *
 * A DataSource hides where training samples live. One template per
 * storage serves every sample kind (ClassDataset, SegDataset,
 * RgbDataset): InMemorySource wraps a dataset in memory, and
 * ShardedSource (stream.hpp) decodes shards off disk through an async
 * prefetcher. Both implement RecordSource::locate, from which the typed
 * accessors (`image`, `label`, `mask`) read. The Session drives the
 * epoch/staging lifecycle on the main thread between batches, so the
 * accessors stay lock-free during compute.
 *
 * Determinism contract: the epoch order is a pure function of (seed,
 * shuffle flag, shard layout) via twoLevelEpochOrder(). A single-shard
 * layout consumes the rng exactly like the flat std::shuffle the engine
 * always used (shuffling a one-element shard list draws nothing), so
 * in-memory training is bit-for-bit unchanged; and any two sources with
 * the same shard layout — a ShardedSource and an InMemorySource
 * preloaded from the same manifest — train bitwise identically at any
 * worker count.
 */
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/dataset.hpp"
#include "utils/rng.hpp"

namespace lightridge {

/**
 * Sample order for one epoch: a seeded permutation of shard order, then
 * a seeded permutation of each shard's indices, concatenated in permuted
 * shard order. Batches therefore stream shard-major (at most two live
 * shards per batch boundary in steady state) while every sample still
 * moves every epoch. With a single shard this reduces exactly to the
 * flat `std::shuffle` order, drawing the same rng values.
 */
std::vector<std::size_t>
twoLevelEpochOrder(const std::vector<std::size_t> &shard_sizes, bool shuffle,
                   Rng *rng);

/**
 * Source-lifecycle interface the Session engine drives. All lifecycle
 * calls happen on the main thread with no trainer jobs in flight ("the
 * pool is idle here" — the same residency contract as the perturbation
 * realization); the typed accessors of RecordSource are then safe to
 * call concurrently from replica workers during the batch.
 */
class DataSource
{
  public:
    virtual ~DataSource();

    /** Total number of samples. */
    virtual std::size_t size() const = 0;

    /** Per-shard sample counts (the two-level shuffle layout). */
    virtual std::vector<std::size_t> shardSizes() const
    {
        return {size()};
    }

    /** Stable source-kind tag for reports ("memory" / "sharded"). */
    virtual const char *sourceKind() const = 0;

    /** Shards decoded ahead of the consumer (0 for in-memory). */
    virtual std::size_t prefetchDepth() const { return 0; }

    /** Payload bytes read off disk so far (0 for in-memory). */
    virtual std::uint64_t bytesRead() const { return 0; }

    /**
     * Start one epoch over the given sample order. The order vector must
     * outlive the epoch (the Session owns it).
     */
    virtual void beginEpoch(const std::vector<std::size_t> *order)
    {
        (void)order;
    }

    /**
     * Make samples order[lo..hi) resident and kick off prefetch of the
     * shards after them. Blocks until the range is decoded; called once
     * per batch, between batches.
     */
    virtual void stageRange(std::size_t lo, std::size_t hi)
    {
        (void)lo;
        (void)hi;
    }

    /**
     * Make samples with global indices [lo, hi) resident (synchronous;
     * the calibration probe's random-access path, usable outside an
     * epoch).
     */
    virtual void stageIndices(std::size_t lo, std::size_t hi)
    {
        (void)lo;
        (void)hi;
    }

    /** End the epoch; in-flight prefetches are drained, slots recycled. */
    virtual void endEpoch() {}
};

/**
 * Typed read side of a source over one sample kind, `Dataset` being
 * ClassDataset, SegDataset or RgbDataset. A source implements `locate`;
 * the accessors read the located dataset's columns, so every kind and
 * every storage shares them.
 */
template <typename Dataset>
class RecordSource : public DataSource
{
  public:
    /**
     * The dataset holding global sample `i` (which must be staged), with
     * the sample's index in it written to `local`. Lock-free.
     */
    virtual const Dataset &locate(std::size_t i,
                                  std::size_t &local) const = 0;

    /** Image of sample i: one plane, or three RGB channel planes. */
    const auto &
    image(std::size_t i) const
    {
        std::size_t local = 0;
        return locate(i, local).images[local];
    }

    /** Class label of sample i (class and rgb kinds). */
    int
    label(std::size_t i) const
    {
        std::size_t local = 0;
        return locate(i, local).labels[local];
    }

    /** Target mask of sample i (seg kind). */
    const RealMap &
    mask(std::size_t i) const
    {
        std::size_t local = 0;
        return locate(i, local).masks[local];
    }
};

/**
 * In-memory source over a borrowed dataset (must outlive the source).
 * An explicit shard layout makes a preloaded manifest train bitwise
 * identically to the streamed run over the same shards; the default
 * single-shard layout reproduces the engine's historical flat shuffle.
 */
template <typename Dataset>
class InMemorySource : public RecordSource<Dataset>
{
  public:
    explicit InMemorySource(const Dataset &data,
                            std::vector<std::size_t> shard_sizes = {})
        : data_(data), shard_sizes_(std::move(shard_sizes))
    {}

    std::size_t size() const override { return data_.size(); }
    std::vector<std::size_t> shardSizes() const override
    {
        return shard_sizes_.empty() ? std::vector<std::size_t>{size()}
                                    : shard_sizes_;
    }
    const char *sourceKind() const override { return "memory"; }

    const Dataset &locate(std::size_t i, std::size_t &local) const override
    {
        local = i;
        return data_;
    }

  private:
    const Dataset &data_;
    std::vector<std::size_t> shard_sizes_;
};

using ClassSource = RecordSource<ClassDataset>;
using SegSource = RecordSource<SegDataset>;
using RgbSource = RecordSource<RgbDataset>;
using InMemoryClassSource = InMemorySource<ClassDataset>;
using InMemorySegSource = InMemorySource<SegDataset>;
using InMemoryRgbSource = InMemorySource<RgbDataset>;

} // namespace lightridge
