/**
 * @file
 * Reusable complex-buffer arena for allocation-free propagation.
 *
 * A by-value propagation hop allocates 2-3 fresh Field buffers (pad
 * copy, crop copy, return value); over a K-layer training step the
 * allocation plus memcpy traffic rivals the FFT arithmetic the paper's
 * Fig. 9 measures. A PropagationWorkspace is a per-thread arena
 * of padded/cropped complex buffers, sized once per (rows, cols) shape and
 * reused across calls: the in-place `forwardInto`/`adjointInto` entry
 * points and the layer/model `*InPlace` pipeline run with zero heap
 * allocations in steady state.
 *
 * Workspaces are single-threaded by design — each worker thread uses its
 * own (typically `threadLocal()`). Buffers are leased with `acquire()` and
 * returned with `release()`; the `WorkspaceField` RAII wrapper pairs the
 * two. Leases may nest (an optical skip block holds a shortcut buffer
 * while its inner layers lease propagation scratch of the same shape); the
 * arena grows to the maximum number of concurrently leased buffers per
 * shape and then stays put.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/field.hpp"

namespace lightridge {

/**
 * Size a destination field, allocating only when the shape changes.
 * Contents are unspecified after a reshape; unchanged shapes are left
 * untouched so steady-state callers never reallocate.
 */
inline void
ensureFieldShape(Field &field, std::size_t rows, std::size_t cols)
{
    if (field.rows() != rows || field.cols() != cols)
        field = Field(rows, cols);
}

/** Per-thread arena of reusable complex field buffers. */
class PropagationWorkspace
{
  public:
    PropagationWorkspace() = default;

    PropagationWorkspace(const PropagationWorkspace &) = delete;
    PropagationWorkspace &operator=(const PropagationWorkspace &) = delete;

    /**
     * Lease a rows-by-cols buffer. Contents are unspecified (callers
     * overwrite). Returns a stable reference: the arena never moves or
     * frees a buffer while it is leased. Allocates only when no free
     * buffer of this exact shape exists (first touch / new nesting
     * high-water mark); steady-state calls are allocation-free.
     */
    Field &acquire(std::size_t rows, std::size_t cols);

    /** Return a leased buffer to the arena (matched by address). */
    void release(const Field &buffer);

    /** Number of buffers currently held by the arena (leased + free). */
    std::size_t pooledCount() const;

    /** Number of currently leased buffers. */
    std::size_t leasedCount() const;

    /** Bytes held by currently idle (unleased) buffers. */
    std::size_t idleBytes() const;

    /**
     * Idle-memory budget: whenever a release leaves more than this many
     * bytes in unleased buffers, the least recently used idle buffers
     * are freed until the arena fits. A steady-state workload touching
     * one model's shapes stays far below the budget and never frees
     * (preserving the zero-allocation guarantee); a DSE sweep visiting
     * dozens of grid sizes no longer pins every shape it ever leased in
     * every thread's arena. Returns the previous budget.
     */
    std::size_t setIdleByteBudget(std::size_t bytes);
    std::size_t idleByteBudget() const { return idle_budget_; }

    /** Default idle budget per arena (applies per thread). */
    static constexpr std::size_t kDefaultIdleByteBudget =
        std::size_t{32} << 20; // 32 MiB

    /** Drop all free buffers (leased ones are kept). Test/debug hook. */
    void clear();

    /**
     * The calling thread's workspace. Training steps, serving workers and
     * the stateless inference helpers (DonnModel::inferField) lease from
     * it; thread-pool workers each get their own arena automatically.
     */
    static PropagationWorkspace &threadLocal();

  private:
    struct Slot
    {
        std::unique_ptr<Field> buffer;
        bool leased = false;
        std::uint64_t last_used = 0;
    };

    void trimIdle();

    std::vector<Slot> slots_;
    std::uint64_t clock_ = 0;
    std::size_t idle_budget_ = kDefaultIdleByteBudget;
};

/** RAII lease of one workspace buffer. */
class WorkspaceField
{
  public:
    WorkspaceField(PropagationWorkspace &workspace, std::size_t rows,
                   std::size_t cols)
        : workspace_(workspace), field_(&workspace.acquire(rows, cols))
    {}
    ~WorkspaceField() { workspace_.release(*field_); }

    WorkspaceField(const WorkspaceField &) = delete;
    WorkspaceField &operator=(const WorkspaceField &) = delete;

    Field &operator*() { return *field_; }
    Field *operator->() { return field_; }
    Field &get() { return *field_; }

  private:
    PropagationWorkspace &workspace_;
    Field *field_;
};

} // namespace lightridge
