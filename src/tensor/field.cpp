#include "tensor/field.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>

#include "fft/kernels.hpp"

namespace lightridge {

#if defined(LIGHTRIDGE_ALLOC_STATS)

namespace {

std::atomic<std::uint64_t> g_field_allocs{0};

} // namespace

namespace detail {

void
countFieldAllocation()
{
    g_field_allocs.fetch_add(1, std::memory_order_relaxed);
}

} // namespace detail

bool
fieldAllocStatsEnabled()
{
    return true;
}

std::uint64_t
fieldAllocCount()
{
    return g_field_allocs.load(std::memory_order_relaxed);
}

void
resetFieldAllocCount()
{
    g_field_allocs.store(0, std::memory_order_relaxed);
}

#else

bool
fieldAllocStatsEnabled()
{
    return false;
}

std::uint64_t
fieldAllocCount()
{
    return 0;
}

void
resetFieldAllocCount()
{
}

#endif

void
RealMap::fill(Real value)
{
    std::fill(data_.begin(), data_.end(), value);
}

Real
RealMap::sum() const
{
    Real total = 0;
    for (Real v : data_)
        total += v;
    return total;
}

Real
RealMap::max() const
{
    if (data_.empty())
        return 0;
    return *std::max_element(data_.begin(), data_.end());
}

Real
RealMap::min() const
{
    if (data_.empty())
        return 0;
    return *std::min_element(data_.begin(), data_.end());
}

Real
RealMap::mean() const
{
    return data_.empty() ? 0 : sum() / static_cast<Real>(data_.size());
}

RealMap &
RealMap::operator*=(Real s)
{
    for (Real &v : data_)
        v *= s;
    return *this;
}

RealMap &
RealMap::operator+=(const RealMap &other)
{
    assert(size() == other.size());
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

RealMap &
RealMap::operator-=(const RealMap &other)
{
    assert(size() == other.size());
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= other.data_[i];
    return *this;
}

void
Field::fill(Complex value)
{
    std::fill(data_.begin(), data_.end(), value);
}

Field &
Field::operator*=(Real s)
{
    for (Complex &v : data_)
        v *= s;
    return *this;
}

Field &
Field::operator*=(Complex s)
{
    for (Complex &v : data_)
        v *= s;
    return *this;
}

Field &
Field::operator+=(const Field &other)
{
    assert(size() == other.size());
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Field &
Field::operator-=(const Field &other)
{
    assert(size() == other.size());
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= other.data_[i];
    return *this;
}

Field &
Field::hadamard(const Field &other)
{
    assert(size() == other.size());
    kernels::cmulInterleaved(
        reinterpret_cast<Real *>(data_.data()),
        reinterpret_cast<const Real *>(other.data_.data()), data_.size());
    return *this;
}

Field &
Field::hadamardConj(const Field &other)
{
    assert(size() == other.size());
    kernels::cmulConjInterleaved(
        reinterpret_cast<Real *>(data_.data()),
        reinterpret_cast<const Real *>(other.data_.data()), data_.size());
    return *this;
}

RealMap
Field::intensity() const
{
    RealMap out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out[i] = std::norm(data_[i]);
    return out;
}

RealMap
Field::amplitude() const
{
    RealMap out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out[i] = std::abs(data_[i]);
    return out;
}

RealMap
Field::phase() const
{
    RealMap out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out[i] = std::arg(data_[i]);
    return out;
}

Real
Field::power() const
{
    Real total = 0;
    for (const Complex &v : data_)
        total += std::norm(v);
    return total;
}

Field
Field::fromPolar(const RealMap &amplitude, const RealMap &phase)
{
    assert(amplitude.rows() == phase.rows() &&
           amplitude.cols() == phase.cols());
    Field out(amplitude.rows(), amplitude.cols());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = std::polar(amplitude[i], phase[i]);
    return out;
}

Field
Field::fromAmplitude(const RealMap &amplitude)
{
    Field out(amplitude.rows(), amplitude.cols());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = Complex{amplitude[i], 0};
    return out;
}

Real
maxAbsDiff(const Field &a, const Field &b)
{
    assert(a.size() == b.size());
    Real worst = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

Real
maxAbsDiff(const RealMap &a, const RealMap &b)
{
    assert(a.size() == b.size());
    Real worst = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

Real
correlation(const RealMap &a, const RealMap &b)
{
    assert(a.size() == b.size() && a.size() > 0);
    Real mean_a = a.mean();
    Real mean_b = b.mean();
    Real cov = 0, var_a = 0, var_b = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        Real da = a[i] - mean_a;
        Real db = b[i] - mean_b;
        cov += da * db;
        var_a += da * da;
        var_b += db * db;
    }
    if (var_a <= 0 || var_b <= 0)
        return var_a == var_b ? 1.0 : 0.0;
    return cov / std::sqrt(var_a * var_b);
}

RealMap
resizeBilinear(const RealMap &in, std::size_t rows, std::size_t cols)
{
    if (in.rows() == 0 || in.cols() == 0)
        throw std::invalid_argument("resizeBilinear: empty input");
    RealMap out(rows, cols);
    const Real row_scale = static_cast<Real>(in.rows()) / rows;
    const Real col_scale = static_cast<Real>(in.cols()) / cols;
    for (std::size_t r = 0; r < rows; ++r) {
        Real src_r = (r + Real(0.5)) * row_scale - Real(0.5);
        src_r = std::clamp<Real>(src_r, 0, in.rows() - 1);
        std::size_t r0 = static_cast<std::size_t>(src_r);
        std::size_t r1 = std::min(r0 + 1, in.rows() - 1);
        Real fr = src_r - r0;
        for (std::size_t c = 0; c < cols; ++c) {
            Real src_c = (c + Real(0.5)) * col_scale - Real(0.5);
            src_c = std::clamp<Real>(src_c, 0, in.cols() - 1);
            std::size_t c0 = static_cast<std::size_t>(src_c);
            std::size_t c1 = std::min(c0 + 1, in.cols() - 1);
            Real fc = src_c - c0;
            Real top = in(r0, c0) * (1 - fc) + in(r0, c1) * fc;
            Real bot = in(r1, c0) * (1 - fc) + in(r1, c1) * fc;
            out(r, c) = top * (1 - fr) + bot * fr;
        }
    }
    return out;
}

RealMap
embedCentered(const RealMap &in, std::size_t rows, std::size_t cols)
{
    if (rows < in.rows() || cols < in.cols())
        throw std::invalid_argument("embedCentered: target smaller than input");
    RealMap out(rows, cols);
    std::size_t r0 = (rows - in.rows()) / 2;
    std::size_t c0 = (cols - in.cols()) / 2;
    for (std::size_t r = 0; r < in.rows(); ++r)
        for (std::size_t c = 0; c < in.cols(); ++c)
            out(r0 + r, c0 + c) = in(r, c);
    return out;
}

} // namespace lightridge
