/**
 * @file
 * 2-D complex wavefield and real-valued map containers.
 *
 * A Field is the fundamental tensor of the framework: one complex sample
 * per diffraction unit, E(x, y) = A * exp(j * theta). RealMap carries phase
 * masks, intensity patterns, labels, and device LUT indices.
 */
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "utils/types.hpp"

namespace lightridge {

/**
 * Debug accounting of Field buffer heap allocations.
 *
 * Compiled in under the CMake option LIGHTRIDGE_ALLOC_STATS: every heap
 * allocation made for a Field's sample buffer bumps a process-wide atomic
 * counter, which the zero-allocation regression tests read to assert that
 * steady-state `Propagator::forwardInto` calls and full in-place train
 * steps allocate nothing. Without the option the counting allocator is
 * not even instantiated — Field uses a plain std::vector and the counter
 * functions are constant no-ops, so release builds pay zero cost.
 */
bool fieldAllocStatsEnabled();

/** Field buffer allocations since process start / last reset (0 when
 *  stats are compiled out). */
std::uint64_t fieldAllocCount();

/** Reset the allocation counter to zero (no-op when compiled out). */
void resetFieldAllocCount();

#if defined(LIGHTRIDGE_ALLOC_STATS)
namespace detail {

void countFieldAllocation();

/** std::allocator shim that counts allocations of Field buffers. */
template <typename T> struct CountingAllocator
{
    using value_type = T;

    CountingAllocator() = default;
    template <typename U>
    CountingAllocator(const CountingAllocator<U> &)
    {}

    T *
    allocate(std::size_t n)
    {
        countFieldAllocation();
        return std::allocator<T>().allocate(n);
    }

    void
    deallocate(T *p, std::size_t n)
    {
        std::allocator<T>().deallocate(p, n);
    }

    template <typename U>
    bool
    operator==(const CountingAllocator<U> &) const
    {
        return true;
    }
};

} // namespace detail

using FieldBuffer = std::vector<Complex, detail::CountingAllocator<Complex>>;
#else
using FieldBuffer = std::vector<Complex>;
#endif

/** Dense row-major real-valued 2-D map. */
class RealMap
{
  public:
    RealMap() = default;

    /** Create a rows-by-cols map filled with the given value. */
    RealMap(std::size_t rows, std::size_t cols, Real fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    Real &operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    Real operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    Real &operator[](std::size_t i) { return data_[i]; }
    Real operator[](std::size_t i) const { return data_[i]; }

    Real *data() { return data_.data(); }
    const Real *data() const { return data_.data(); }
    std::vector<Real> &raw() { return data_; }
    const std::vector<Real> &raw() const { return data_; }

    /** Set every element to the given value. */
    void fill(Real value);

    /** Sum of all elements. */
    Real sum() const;

    /** Largest element (0 for empty maps). */
    Real max() const;

    /** Smallest element (0 for empty maps). */
    Real min() const;

    /** Arithmetic mean (0 for empty maps). */
    Real mean() const;

    /** Elementwise in-place scale. */
    RealMap &operator*=(Real s);

    /** Elementwise in-place add. */
    RealMap &operator+=(const RealMap &other);

    /** Elementwise in-place subtract. */
    RealMap &operator-=(const RealMap &other);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<Real> data_;
};

/** Dense row-major complex-valued 2-D wavefield. */
class Field
{
  public:
    Field() = default;

    /** Create a rows-by-cols field filled with the given value. */
    Field(std::size_t rows, std::size_t cols, Complex fill = Complex{0, 0})
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    Complex &operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    Complex operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    Complex &operator[](std::size_t i) { return data_[i]; }
    Complex operator[](std::size_t i) const { return data_[i]; }

    Complex *data() { return data_.data(); }
    const Complex *data() const { return data_.data(); }

    /** Set every element to the given value. */
    void fill(Complex value);

    /** Elementwise in-place scale by a real factor. */
    Field &operator*=(Real s);

    /** Elementwise in-place scale by a complex factor. */
    Field &operator*=(Complex s);

    /** Elementwise in-place add. */
    Field &operator+=(const Field &other);

    /** Elementwise in-place subtract. */
    Field &operator-=(const Field &other);

    /**
     * Elementwise in-place Hadamard product (complex MM of the paper),
     * through the interleaved complex-multiply kernel of fft/kernels.hpp.
     */
    Field &hadamard(const Field &other);

    /** Elementwise in-place product with the conjugate of other. */
    Field &hadamardConj(const Field &other);

    /** Per-sample intensity |E|^2. */
    RealMap intensity() const;

    /** Per-sample amplitude |E|. */
    RealMap amplitude() const;

    /** Per-sample phase arg(E) in (-pi, pi]. */
    RealMap phase() const;

    /** Total optical power sum |E|^2 over the field. */
    Real power() const;

    /** Construct a field from amplitude and phase maps. */
    static Field fromPolar(const RealMap &amplitude, const RealMap &phase);

    /** Construct a field from an amplitude map with zero phase. */
    static Field fromAmplitude(const RealMap &amplitude);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    FieldBuffer data_;
};

/** Maximum absolute elementwise difference between two fields. */
Real maxAbsDiff(const Field &a, const Field &b);

/** Maximum absolute elementwise difference between two maps. */
Real maxAbsDiff(const RealMap &a, const RealMap &b);

/**
 * Pearson correlation between two equally sized maps; 1.0 for identical
 * patterns. Used to score simulation-vs-hardware detector agreement (Fig 6).
 */
Real correlation(const RealMap &a, const RealMap &b);

/**
 * Bilinearly resize a map to the given shape. Used to embed 28x28 dataset
 * images into the system resolution (e.g. 200x200) as the paper does.
 */
RealMap resizeBilinear(const RealMap &in, std::size_t rows, std::size_t cols);

/**
 * Embed a map centered inside a larger zero map (no scaling). pad must be
 * at least the input size in both dimensions.
 */
RealMap embedCentered(const RealMap &in, std::size_t rows, std::size_t cols);

} // namespace lightridge
