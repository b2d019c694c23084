/**
 * @file
 * Sharded on-disk training source with a double-buffered async
 * prefetcher.
 *
 * ShardedSource<Dataset> serves any sample kind (ShardedClassSource,
 * ShardedSegSource and ShardedRgbSource name the three) from one
 * ShardStream, which drives residency for one manifest: the Session
 * stages each batch between batches (main thread, no trainer jobs in
 * flight), and the stream decodes the shards the batch spans — plus
 * `prefetch` shards of lookahead — into a ring of reusable slot
 * buffers. Decode jobs ride the global ThreadPool (ThreadPool::enqueue
 * degrades to inline decode on a 0-worker pool), so while the trainer
 * consumes shard t the pool is already decoding shard t+1. Slot buffers
 * are recycled arena-style across shards and epochs: after the first
 * epoch warms the ring, a steady-state streamed train step performs
 * zero Field allocations (the decode path, decodeShardInto over the
 * shared decodeRecordsInto, is RealMap-only by construction, and the
 * lint rule zero-alloc-hot-path watches both).
 *
 * Concurrency contract: all lifecycle calls (beginEpoch / stageRange /
 * stageIndices / endEpoch) are main-thread-only; the shard-to-slot map
 * mutates only there. Decode jobs touch only their own slot's buffer and
 * the mutex-guarded state word. Sample accessors are lock-free reads of
 * slots staged Ready before the batch launched.
 */
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "data/shard.hpp"
#include "data/source.hpp"
#include "utils/sync.hpp"

namespace lightridge {

/** Residency engine behind ShardedSource, whatever the sample kind. */
class ShardStream
{
  public:
    /**
     * @param manifest loaded manifest (its kind and shard headers are
     *        verified now, so a wrong kind or missing/mismatched shard
     *        files fail at construction)
     * @param kind sample kind the manifest must hold
     * @param prefetch shards decoded ahead of the consumer (0 =
     *        synchronous loads, 1 = classic double buffering)
     */
    ShardStream(DatasetManifest manifest, ShardKind kind,
                std::size_t prefetch);
    ~ShardStream();

    ShardStream(const ShardStream &) = delete;
    ShardStream &operator=(const ShardStream &) = delete;

    const DatasetManifest &manifest() const { return manifest_; }
    std::size_t size() const { return manifest_.samples; }
    std::vector<std::size_t> shardSizes() const
    {
        return manifest_.shardSizes();
    }
    std::size_t prefetchDepth() const { return prefetch_; }

    /** Shard payload bytes decoded so far (re-decodes count). */
    std::uint64_t bytesRead() const LIGHTRIDGE_EXCLUDES(mutex_);

    void beginEpoch(const std::vector<std::size_t> *order)
        LIGHTRIDGE_EXCLUDES(mutex_);
    void stageRange(std::size_t lo, std::size_t hi)
        LIGHTRIDGE_EXCLUDES(mutex_);
    void stageIndices(std::size_t lo, std::size_t hi)
        LIGHTRIDGE_EXCLUDES(mutex_);
    void endEpoch() LIGHTRIDGE_EXCLUDES(mutex_);

    /**
     * Buffer holding global sample `i` (must be staged), with its local
     * index within the buffer written to `local`. Lock-free.
     */
    const ShardBuffer &locate(std::size_t i, std::size_t &local) const;

  private:
    enum class SlotState { Free, Loading, Ready, Failed };

    /** One ring slot: a decoded shard (storage reused across loads). */
    struct Slot
    {
        std::size_t shard = SIZE_MAX;
        std::size_t run = SIZE_MAX;
        ShardBuffer buffer;
    };

    /** One maximal span of consecutive order positions in one shard. */
    struct Run
    {
        std::size_t shard = 0;
        std::size_t begin = 0; ///< first order position
        std::size_t end = 0;   ///< one past the last order position
        std::size_t slot = SIZE_MAX;
    };

    std::size_t shardOf(std::size_t global) const;
    std::size_t acquireSlot() LIGHTRIDGE_EXCLUDES(mutex_);
    void scheduleRun(std::size_t r) LIGHTRIDGE_EXCLUDES(mutex_);
    void waitRun(std::size_t r) LIGHTRIDGE_EXCLUDES(mutex_);
    void releaseRun(std::size_t r) LIGHTRIDGE_EXCLUDES(mutex_);
    void drainLoading() LIGHTRIDGE_EXCLUDES(mutex_);
    void releaseAllSlots() LIGHTRIDGE_EXCLUDES(mutex_);
    void decodeInline(std::size_t slot_index) LIGHTRIDGE_EXCLUDES(mutex_);

    DatasetManifest manifest_;
    std::size_t prefetch_;
    std::vector<std::size_t> prefix_; ///< shard start offsets (size k+1)

    // Main-thread state (lifecycle calls only).
    std::vector<std::unique_ptr<Slot>> slots_;
    std::vector<std::size_t> shard_slot_; ///< shard -> slot (SIZE_MAX none)
    std::vector<Run> runs_;
    std::size_t first_live_run_ = 0;
    std::size_t next_run_ = 0;
    const std::vector<std::size_t> *order_ = nullptr;

    // Shared with decode jobs.
    mutable Mutex mutex_;
    CondVar cv_;
    std::vector<SlotState> slot_state_ LIGHTRIDGE_GUARDED_BY(mutex_);
    std::size_t loading_ LIGHTRIDGE_GUARDED_BY(mutex_) = 0;
    std::exception_ptr error_ LIGHTRIDGE_GUARDED_BY(mutex_);
    std::uint64_t bytes_read_ LIGHTRIDGE_GUARDED_BY(mutex_) = 0;
};

/**
 * Streaming source over a packed dataset of `Dataset` samples. The
 * manifest must hold that kind (checked with the shard headers at
 * construction).
 */
template <typename Dataset>
class ShardedSource : public RecordSource<Dataset>
{
  public:
    explicit ShardedSource(DatasetManifest manifest, std::size_t prefetch = 1)
        : stream_(std::move(manifest), shardKindOf<Dataset>(), prefetch)
    {}

    std::size_t size() const override { return stream_.size(); }
    std::vector<std::size_t> shardSizes() const override
    {
        return stream_.shardSizes();
    }
    const char *sourceKind() const override { return "sharded"; }
    std::size_t prefetchDepth() const override
    {
        return stream_.prefetchDepth();
    }
    std::uint64_t bytesRead() const override { return stream_.bytesRead(); }

    void beginEpoch(const std::vector<std::size_t> *order) override
    {
        stream_.beginEpoch(order);
    }
    void stageRange(std::size_t lo, std::size_t hi) override
    {
        stream_.stageRange(lo, hi);
    }
    void stageIndices(std::size_t lo, std::size_t hi) override
    {
        stream_.stageIndices(lo, hi);
    }
    void endEpoch() override { stream_.endEpoch(); }

    const Dataset &locate(std::size_t i, std::size_t &local) const override
    {
        return std::get<Dataset>(stream_.locate(i, local));
    }

  private:
    ShardStream stream_;
};

using ShardedClassSource = ShardedSource<ClassDataset>;
using ShardedSegSource = ShardedSource<SegDataset>;
using ShardedRgbSource = ShardedSource<RgbDataset>;

} // namespace lightridge
