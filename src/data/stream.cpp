#include "data/stream.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "utils/thread_pool.hpp"

namespace lightridge {

ShardStream::ShardStream(DatasetManifest manifest, ShardKind kind,
                         std::size_t prefetch)
    : manifest_(std::move(manifest)), prefetch_(prefetch)
{
    checkManifestKind(manifest_, kind);
    verifyShardHeaders(manifest_);
    prefix_.resize(manifest_.shards.size() + 1, 0);
    for (std::size_t s = 0; s < manifest_.shards.size(); ++s)
        prefix_[s + 1] = prefix_[s] + manifest_.shards[s].samples;
    shard_slot_.assign(manifest_.shards.size(), SIZE_MAX);
}

ShardStream::~ShardStream() { drainLoading(); }

std::uint64_t
ShardStream::bytesRead() const
{
    MutexLock lock(mutex_);
    return bytes_read_;
}

std::size_t
ShardStream::shardOf(std::size_t global) const
{
    const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), global);
    return static_cast<std::size_t>(it - prefix_.begin()) - 1;
}

const ShardBuffer &
ShardStream::locate(std::size_t i, std::size_t &local) const
{
    const std::size_t s = shardOf(i);
    assert(shard_slot_[s] != SIZE_MAX && "sample read without staging");
    local = i - prefix_[s];
    return slots_[shard_slot_[s]]->buffer;
}

void
ShardStream::beginEpoch(const std::vector<std::size_t> *order)
{
    drainLoading();
    releaseAllSlots();
    {
        MutexLock lock(mutex_);
        error_ = nullptr;
    }
    order_ = order;
    runs_.clear();
    first_live_run_ = 0;
    next_run_ = 0;
    if (order == nullptr)
        return;
    // Group consecutive order positions landing in the same shard into
    // runs; the two-level shuffle yields exactly one run per shard, but
    // any order works (it just decodes a shard once per run).
    std::size_t p = 0;
    while (p < order->size()) {
        Run run;
        run.shard = shardOf((*order)[p]);
        run.begin = p;
        std::size_t q = p + 1;
        while (q < order->size() && shardOf((*order)[q]) == run.shard)
            ++q;
        run.end = q;
        runs_.push_back(run);
        p = q;
    }
}

void
ShardStream::endEpoch()
{
    drainLoading();
    releaseAllSlots();
    order_ = nullptr;
    runs_.clear();
    first_live_run_ = 0;
    next_run_ = 0;
}

void
ShardStream::stageRange(std::size_t lo, std::size_t hi)
{
    if (order_ == nullptr || runs_.empty() || lo >= hi)
        return;
    hi = std::min(hi, order_->size());

    // Retire runs fully consumed before this batch: their slots go back
    // to the ring (decoded data stays cached until the slot is reused).
    while (first_live_run_ < runs_.size() && runs_[first_live_run_].end <= lo) {
        releaseRun(first_live_run_);
        ++first_live_run_;
    }
    if (first_live_run_ >= runs_.size())
        return;

    // Last run this batch touches.
    std::size_t need_end = first_live_run_;
    while (need_end + 1 < runs_.size() && runs_[need_end].end < hi)
        ++need_end;

    // Schedule decode jobs through the lookahead window before blocking,
    // so shard t+1 decodes while the trainer consumes shard t.
    const std::size_t ahead =
        std::min(runs_.size() - 1, need_end + prefetch_);
    if (next_run_ < first_live_run_)
        next_run_ = first_live_run_;
    while (next_run_ <= ahead) {
        scheduleRun(next_run_);
        ++next_run_;
    }

    for (std::size_t r = first_live_run_; r <= need_end; ++r)
        waitRun(r);
}

void
ShardStream::stageIndices(std::size_t lo, std::size_t hi)
{
    if (lo >= hi)
        return;
    hi = std::min(hi, size());
    const std::size_t first = shardOf(lo);
    const std::size_t last = shardOf(hi - 1);
    for (std::size_t s = first; s <= last; ++s) {
        std::size_t idx = shard_slot_[s];
        if (idx != SIZE_MAX) {
            MutexLock lock(mutex_);
            while (slot_state_[idx] == SlotState::Loading)
                cv_.wait(mutex_);
            if (error_)
                std::rethrow_exception(error_);
            if (slot_state_[idx] == SlotState::Free)
                slot_state_[idx] = SlotState::Ready; // cached decode
            continue;
        }
        idx = acquireSlot();
        Slot &sl = *slots_[idx];
        sl.shard = s;
        sl.run = SIZE_MAX;
        shard_slot_[s] = idx;
        decodeInline(idx);
    }
}

std::size_t
ShardStream::acquireSlot()
{
    // Prefer a Free slot with no cached shard; failing that, repurpose
    // any Free slot (evicting its cache); grow the ring only when every
    // slot is busy — so the ring sizes itself to the high-water mark of
    // concurrent residency, not to the dataset.
    std::size_t found = SIZE_MAX;
    {
        MutexLock lock(mutex_);
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (slot_state_[i] != SlotState::Free)
                continue;
            if (slots_[i]->shard == SIZE_MAX)
                return i;
            if (found == SIZE_MAX)
                found = i;
        }
    }
    if (found != SIZE_MAX) {
        Slot &sl = *slots_[found];
        if (sl.shard != SIZE_MAX && shard_slot_[sl.shard] == found)
            shard_slot_[sl.shard] = SIZE_MAX;
        sl.shard = SIZE_MAX;
        return found;
    }
    slots_.push_back(std::make_unique<Slot>());
    {
        MutexLock lock(mutex_);
        slot_state_.push_back(SlotState::Free);
    }
    return slots_.size() - 1;
}

void
ShardStream::scheduleRun(std::size_t r)
{
    Run &run = runs_[r];
    const std::size_t s = run.shard;
    std::size_t idx = shard_slot_[s];
    if (idx != SIZE_MAX) {
        // Shard already resident (Ready, still decoding, or cached in a
        // Free slot): claim it for this run instead of re-decoding.
        slots_[idx]->run = r;
        run.slot = idx;
        MutexLock lock(mutex_);
        if (slot_state_[idx] == SlotState::Free)
            slot_state_[idx] = SlotState::Ready;
        return;
    }
    idx = acquireSlot();
    Slot &sl = *slots_[idx];
    sl.shard = s;
    sl.run = r;
    run.slot = idx;
    shard_slot_[s] = idx;
    {
        MutexLock lock(mutex_);
        slot_state_[idx] = SlotState::Loading;
        ++loading_;
    }
    // The job touches only its own slot's buffer and the guarded state
    // word; it must not throw (pool contract), so failures are parked in
    // error_ and rethrown by the main thread in waitRun.
    Slot *slot = slots_[idx].get();
    ThreadPool::global().enqueue([this, slot, idx, s]() {
        std::exception_ptr err;
        try {
            decodeShardInto(manifest_, s, slot->buffer);
        } catch (...) {
            err = std::current_exception();
        }
        MutexLock lock(mutex_);
        if (err) {
            slot_state_[idx] = SlotState::Failed;
            if (!error_)
                error_ = err;
        } else {
            slot_state_[idx] = SlotState::Ready;
            bytes_read_ += manifest_.shards[s].bytes;
        }
        --loading_;
        cv_.notify_all();
    });
}

void
ShardStream::waitRun(std::size_t r)
{
    const std::size_t idx = runs_[r].slot;
    if (idx == SIZE_MAX)
        return;
    MutexLock lock(mutex_);
    while (slot_state_[idx] == SlotState::Loading)
        cv_.wait(mutex_);
    if (error_)
        std::rethrow_exception(error_);
}

void
ShardStream::releaseRun(std::size_t r)
{
    Run &run = runs_[r];
    if (run.slot == SIZE_MAX)
        return;
    Slot &sl = *slots_[run.slot];
    if (sl.run != r)
        return; // a later run re-claimed the resident shard
    MutexLock lock(mutex_);
    if (slot_state_[run.slot] != SlotState::Ready)
        return; // Loading/Failed slots are cleaned up by begin/endEpoch
    slot_state_[run.slot] = SlotState::Free; // shard cache mapping kept
    sl.run = SIZE_MAX;
}

void
ShardStream::drainLoading()
{
    MutexLock lock(mutex_);
    while (loading_ > 0)
        cv_.wait(mutex_);
}

void
ShardStream::releaseAllSlots()
{
    MutexLock lock(mutex_);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
        Slot &sl = *slots_[i];
        if (slot_state_[i] == SlotState::Failed) {
            // A failed decode leaves the buffer unusable: drop the cache
            // mapping so the shard is re-decoded if requested again.
            if (sl.shard != SIZE_MAX && shard_slot_[sl.shard] == i)
                shard_slot_[sl.shard] = SIZE_MAX;
            sl.shard = SIZE_MAX;
        }
        slot_state_[i] = SlotState::Free;
        sl.run = SIZE_MAX;
    }
}

void
ShardStream::decodeInline(std::size_t slot_index)
{
    Slot &sl = *slots_[slot_index];
    try {
        decodeShardInto(manifest_, sl.shard, sl.buffer);
    } catch (...) {
        // Partially decoded buffers must not be served as a cache.
        if (shard_slot_[sl.shard] == slot_index)
            shard_slot_[sl.shard] = SIZE_MAX;
        sl.shard = SIZE_MAX;
        throw;
    }
    MutexLock lock(mutex_);
    slot_state_[slot_index] = SlotState::Ready;
    bytes_read_ += manifest_.shards[sl.shard].bytes;
}

} // namespace lightridge
