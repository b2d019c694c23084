/**
 * @file
 * Polymorphic training-data sources and the deterministic two-level
 * epoch shuffle.
 *
 * A DataSource hides where training samples live: InMemory* sources wrap
 * the synthetic datasets exactly as before, Sharded* sources (stream.hpp)
 * decode shards off disk through an async prefetcher. Tasks read samples
 * through the typed accessors; the Session drives the epoch/staging
 * lifecycle on the main thread between batches, so the accessors stay
 * lock-free during compute.
 *
 * Determinism contract: the epoch order is a pure function of (seed,
 * shuffle flag, shard layout) via twoLevelEpochOrder(). A single-shard
 * layout consumes the rng exactly like the flat std::shuffle the engine
 * always used (shuffling a one-element shard list draws nothing), so
 * in-memory training is bit-for-bit unchanged; and any two sources with
 * the same shard layout — a ShardedDiskSource and an InMemorySource
 * preloaded from the same manifest — train bitwise identically at any
 * worker count.
 */
#pragma once

#include <array>
#include <cstdint>
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
 * realization); typed accessors (see ClassSource et al.) are then safe
 * to call concurrently from replica workers during the batch.
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

/** Classification samples: grayscale image + int label. */
class ClassSource : public DataSource
{
  public:
    virtual const RealMap &image(std::size_t i) const = 0;
    virtual int label(std::size_t i) const = 0;
    virtual std::size_t numClasses() const = 0;
};

/** Segmentation samples: image + target mask. */
class SegSource : public DataSource
{
  public:
    virtual const RealMap &image(std::size_t i) const = 0;
    virtual const RealMap &mask(std::size_t i) const = 0;
};

/** RGB classification samples: three channel planes + int label. */
class RgbSource : public DataSource
{
  public:
    virtual const std::array<RealMap, 3> &image(std::size_t i) const = 0;
    virtual int label(std::size_t i) const = 0;
    virtual std::size_t numClasses() const = 0;
};

/**
 * In-memory source over a borrowed dataset (must outlive the source).
 * An explicit shard layout makes a preloaded manifest train bitwise
 * identically to the streamed run over the same shards; the default
 * single-shard layout reproduces the engine's historical flat shuffle.
 */
class InMemoryClassSource : public ClassSource
{
  public:
    explicit InMemoryClassSource(const ClassDataset &data,
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

    const RealMap &image(std::size_t i) const override
    {
        return data_.images[i];
    }
    int label(std::size_t i) const override { return data_.labels[i]; }
    std::size_t numClasses() const override { return data_.num_classes; }

  private:
    const ClassDataset &data_;
    std::vector<std::size_t> shard_sizes_;
};

/** In-memory segmentation source (see InMemoryClassSource). */
class InMemorySegSource : public SegSource
{
  public:
    explicit InMemorySegSource(const SegDataset &data,
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

    const RealMap &image(std::size_t i) const override
    {
        return data_.images[i];
    }
    const RealMap &mask(std::size_t i) const override
    {
        return data_.masks[i];
    }

  private:
    const SegDataset &data_;
    std::vector<std::size_t> shard_sizes_;
};

/** In-memory RGB source (see InMemoryClassSource). */
class InMemoryRgbSource : public RgbSource
{
  public:
    explicit InMemoryRgbSource(const RgbDataset &data,
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

    const std::array<RealMap, 3> &image(std::size_t i) const override
    {
        return data_.images[i];
    }
    int label(std::size_t i) const override { return data_.labels[i]; }
    std::size_t numClasses() const override { return data_.num_classes; }

  private:
    const RgbDataset &data_;
    std::vector<std::size_t> shard_sizes_;
};

} // namespace lightridge
