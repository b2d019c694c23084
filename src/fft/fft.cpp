#include "fft/fft.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "fft/butterflies.hpp"
#include "utils/sync.hpp"
#include "utils/thread_pool.hpp"

namespace lightridge {

namespace {

/** Largest prime factor handled by the direct mixed-radix path. */
constexpr std::size_t kMaxDirectRadix = 31;

/** Factorize n into primes in ascending order (2 repeated, etc.). */
std::vector<std::size_t>
factorize(std::size_t n)
{
    std::vector<std::size_t> factors;
    for (std::size_t p = 2; p * p <= n; p += (p == 2 ? 1 : 2)) {
        while (n % p == 0) {
            factors.push_back(p);
            n /= p;
        }
    }
    if (n > 1)
        factors.push_back(n);
    return factors;
}

/**
 * Radix sequence of the recursion: pairs of 2s fuse into radix-4 levels
 * (half the combine passes over the dominant power-of-two part), any
 * leftover 2 and the odd prime factors follow unchanged.
 */
std::vector<std::size_t>
groupRadices(const std::vector<std::size_t> &factors)
{
    std::size_t twos = 0;
    std::vector<std::size_t> grouped;
    for (std::size_t p : factors) {
        if (p == 2)
            ++twos;
        else
            grouped.push_back(p);
    }
    std::vector<std::size_t> out(twos / 2, 4);
    if (twos % 2 != 0)
        out.push_back(2);
    out.insert(out.end(), grouped.begin(), grouped.end());
    return out;
}

/**
 * Thread-local split real/imag scratch for the SoA recursion: recursion
 * output and a generic-radix staging block. One set per thread suffices
 * because plan execution uses it strictly nested (a combine finishes with
 * the staging block before its parent starts).
 */
struct SoaScratch
{
    std::vector<Real> out_re, out_im;
    std::vector<Real> stage_re, stage_im;

    void
    ensure(std::size_t n)
    {
        if (out_re.size() >= n)
            return;
        out_re.resize(n);
        out_im.resize(n);
        stage_re.resize(n);
        stage_im.resize(n);
    }
};

SoaScratch &
tlsSoaScratch(std::size_t n)
{
    static thread_local SoaScratch scratch;
    scratch.ensure(n);
    return scratch;
}

/**
 * Twiddle-free P-point leaf of the SoA recursion (P = 3 or 5): gathers P
 * interleaved samples `step` Reals apart and writes the P-point DFT as
 * split real/imag outputs, through the same butterfly as the passes.
 */
template <std::size_t P>
void
oddPrimeLeaf(const Real *in, std::size_t step, Real *out_re, Real *out_im)
{
    Real r[P], i[P];
    for (std::size_t j = 0; j < P; ++j) {
        r[j] = in[j * step];
        i[j] = in[j * step + 1];
    }
    if constexpr (P == 3)
        kernels::detail::butterfly3(r[0], i[0], r[1], i[1], r[2], i[2]);
    else
        kernels::detail::butterfly5(r[0], i[0], r[1], i[1], r[2], i[2], r[3],
                                    i[3], r[4], i[4]);
    std::copy(r, r + P, out_re);
    std::copy(i, i + P, out_im);
}

} // namespace

/**
 * Plan internals. Two strategies:
 *  - Mixed radix: split real/imag (SoA) recursion over a radix sequence
 *    (groupRadices), with per-level twiddle sub-tables feeding the
 *    kernels in fft/kernels.hpp.
 *  - Bluestein: chirp-z over an internal power-of-two mixed-radix plan.
 */
struct FftPlan::Impl
{
    std::size_t n = 0;
    bool bluestein = false;

    // Mixed-radix state. Per level with radix p over blocks of length
    // n_level = p * m:
    //  - twiddle_{re,im} hold p-1 unit-stride sub-tables of length m each,
    //    tw[(j-1)*m + k] = exp(-j*2*pi*(j*k)/n_level), j in 1..p-1;
    //  - dft_{re,im} hold the p*p DFT matrix exp(-j*2*pi*t*j/p) for the
    //    generic-radix kernel (empty for the specialized p = 2, 3, 4, 5).
    std::vector<std::size_t> radices;
    std::vector<std::vector<Real>> twiddle_re, twiddle_im;
    std::vector<std::vector<Real>> dft_re, dft_im;

    // Bluestein state.
    std::size_t m = 0;                      // power-of-two conv length
    std::vector<Complex> chirp;             // a_k = exp(-j*pi*k^2/n)
    std::vector<Complex> chirp_spectrum;    // FFT_m of conj-chirp kernel
    std::shared_ptr<const FftPlan> inner;   // power-of-two plan of length m

    void buildMixedRadix(const std::vector<std::size_t> &factors);
    void buildBluestein();
    void executeMixed(Complex *data) const;
    void recurseSoa(const Real *in, std::size_t in_stride, Real *out_re,
                    Real *out_im, std::size_t n_cur, std::size_t level,
                    SoaScratch *scratch) const;
    void combineSoa(Real *re, Real *im, std::size_t n_cur, std::size_t p,
                    std::size_t level, SoaScratch *scratch) const;
    void executeBluestein(Complex *data) const;
};

void
FftPlan::Impl::buildMixedRadix(const std::vector<std::size_t> &factors)
{
    radices = groupRadices(factors);
    std::size_t cur = n;
    for (std::size_t p : radices) {
        const std::size_t m_cur = cur / p;
        std::vector<Real> tw_re((p - 1) * m_cur);
        std::vector<Real> tw_im((p - 1) * m_cur);
        for (std::size_t j = 1; j < p; ++j)
            for (std::size_t k = 0; k < m_cur; ++k) {
                std::size_t idx = (j * k) % cur; // keep the argument small
                Real angle = -kTwoPi * static_cast<Real>(idx) /
                             static_cast<Real>(cur);
                tw_re[(j - 1) * m_cur + k] = std::cos(angle);
                tw_im[(j - 1) * m_cur + k] = std::sin(angle);
            }
        twiddle_re.push_back(std::move(tw_re));
        twiddle_im.push_back(std::move(tw_im));

        std::vector<Real> w_re, w_im;
        if (p > 5) {
            w_re.resize(p * p);
            w_im.resize(p * p);
            for (std::size_t t = 0; t < p; ++t)
                for (std::size_t j = 0; j < p; ++j) {
                    Real angle = -kTwoPi *
                                 static_cast<Real>((t * j) % p) /
                                 static_cast<Real>(p);
                    w_re[t * p + j] = std::cos(angle);
                    w_im[t * p + j] = std::sin(angle);
                }
        }
        dft_re.push_back(std::move(w_re));
        dft_im.push_back(std::move(w_im));
        cur = m_cur;
    }
}

void
FftPlan::Impl::buildBluestein()
{
    bluestein = true;
    m = 1;
    while (m < 2 * n - 1)
        m <<= 1;
    // Power-of-two inner plans recur across Bluestein lengths (every prime
    // in [2^{k-1}, 2^k) shares the same conv length), so take them from the
    // shared cache.
    inner = acquireFftPlan(m);

    chirp.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
        // k^2 mod 2n keeps the argument small for precision.
        std::size_t k2 = (k * k) % (2 * n);
        Real angle = -kPi * static_cast<Real>(k2) / static_cast<Real>(n);
        chirp[k] = Complex{std::cos(angle), std::sin(angle)};
    }

    std::vector<Complex> kernel(m, Complex{0, 0});
    for (std::size_t k = 0; k < n; ++k) {
        Complex b = std::conj(chirp[k]);
        kernel[k] = b;
        if (k != 0)
            kernel[m - k] = b;
    }
    inner->forward(kernel.data());
    chirp_spectrum = std::move(kernel);
}

void
FftPlan::Impl::combineSoa(Real *re, Real *im, std::size_t n_cur,
                          std::size_t p, std::size_t level,
                          SoaScratch *scratch) const
{
    const std::size_t m_cur = n_cur / p;
    const Real *tw_re = twiddle_re[level].data();
    const Real *tw_im = twiddle_im[level].data();

    if (p == 2) {
        kernels::radix2Pass(re, im, tw_re, tw_im, m_cur);
        return;
    }
    if (p == 4) {
        kernels::radix4Pass(re, im, tw_re, tw_im, m_cur);
        return;
    }
    if (p == 3) {
        kernels::radix3Pass(re, im, tw_re, tw_im, m_cur);
        return;
    }
    if (p == 5) {
        kernels::radix5Pass(re, im, tw_re, tw_im, m_cur);
        return;
    }

    // Generic radix: stage b_j = a_j * tw_j (b_0 = a_0), then accumulate
    // the p-point DFT rows y_t = sum_j W_p^{tj} * b_j as vectorized
    // constant-complex axpy passes over unit-stride lanes.
    Real *b_re = scratch->stage_re.data();
    Real *b_im = scratch->stage_im.data();
    std::copy(re, re + m_cur, b_re);
    std::copy(im, im + m_cur, b_im);
    for (std::size_t j = 1; j < p; ++j)
        kernels::cmulSoa(b_re + j * m_cur, b_im + j * m_cur, re + j * m_cur,
                         im + j * m_cur, tw_re + (j - 1) * m_cur,
                         tw_im + (j - 1) * m_cur, m_cur);
    const Real *w_re = dft_re[level].data();
    const Real *w_im = dft_im[level].data();
    for (std::size_t t = 0; t < p; ++t) {
        Real *y_re = re + t * m_cur;
        Real *y_im = im + t * m_cur;
        std::copy(b_re, b_re + m_cur, y_re); // W_p^{t*0} = 1
        std::copy(b_im, b_im + m_cur, y_im);
        for (std::size_t j = 1; j < p; ++j)
            kernels::caxpySoa(y_re, y_im, b_re + j * m_cur, b_im + j * m_cur,
                              w_re[t * p + j], w_im[t * p + j], m_cur);
    }
}

/**
 * SoA recursion over interleaved input: `in` points at complex sample 0
 * of the sub-transform, strided by `in_stride` complex samples. Reading
 * the interleaved data directly at the gather points saves a full
 * deinterleave pass, and the deepest levels (twiddle-free 2-, 3-, 4- and
 * 5-point transforms) are unrolled to cut leaf-call overhead.
 */
void
FftPlan::Impl::recurseSoa(const Real *in, std::size_t in_stride,
                          Real *out_re, Real *out_im, std::size_t n_cur,
                          std::size_t level, SoaScratch *scratch) const
{
    const std::size_t step = 2 * in_stride; // Reals per complex stride
    if (n_cur == 1) {
        out_re[0] = in[0];
        out_im[0] = in[1];
        return;
    }
    if (n_cur == 2) { // last level is always radix-2, twiddles are 1
        Real a0r = in[0], a0i = in[1];
        Real a1r = in[step], a1i = in[step + 1];
        out_re[0] = a0r + a1r;
        out_im[0] = a0i + a1i;
        out_re[1] = a0r - a1r;
        out_im[1] = a0i - a1i;
        return;
    }
    if (n_cur == 3) { // odd primes close the radix sequence
        oddPrimeLeaf<3>(in, step, out_re, out_im);
        return;
    }
    if (n_cur == 5) {
        oddPrimeLeaf<5>(in, step, out_re, out_im);
        return;
    }
    const std::size_t p = radices[level];
    if (n_cur == 4 && p == 4) { // twiddle-free 4-point leaf (W_4 = -j)
        Real a0r = in[0], a0i = in[1];
        Real a1r = in[step], a1i = in[step + 1];
        Real a2r = in[2 * step], a2i = in[2 * step + 1];
        Real a3r = in[3 * step], a3i = in[3 * step + 1];
        Real s0r = a0r + a2r, s0i = a0i + a2i;
        Real s1r = a0r - a2r, s1i = a0i - a2i;
        Real s2r = a1r + a3r, s2i = a1i + a3i;
        Real s3r = a1r - a3r, s3i = a1i - a3i;
        out_re[0] = s0r + s2r;
        out_im[0] = s0i + s2i;
        out_re[1] = s1r + s3i;
        out_im[1] = s1i - s3r;
        out_re[2] = s0r - s2r;
        out_im[2] = s0i - s2i;
        out_re[3] = s1r - s3i;
        out_im[3] = s1i + s3r;
        return;
    }
    const std::size_t m_cur = n_cur / p;
    for (std::size_t j = 0; j < p; ++j)
        recurseSoa(in + j * step, in_stride * p, out_re + j * m_cur,
                   out_im + j * m_cur, m_cur, level + 1, scratch);
    combineSoa(out_re, out_im, n_cur, p, level, scratch);
}

void
FftPlan::Impl::executeMixed(Complex *data) const
{
    SoaScratch &scratch = tlsSoaScratch(n);
    Real *interleaved = reinterpret_cast<Real *>(data);
    recurseSoa(interleaved, 1, scratch.out_re.data(), scratch.out_im.data(),
               n, 0, &scratch);
    kernels::interleave(scratch.out_re.data(), scratch.out_im.data(),
                        interleaved, n);
}

void
FftPlan::Impl::executeBluestein(Complex *data) const
{
    // Scratch must not collide with the inner plan's own thread-local use;
    // the convolution buffer lives in its own thread-local pool (the inner
    // plan is always mixed-radix, so Bluestein execution never nests) and
    // is grown once per length — steady-state execution allocates nothing.
    static thread_local std::vector<Complex> chirp_buffer;
    if (chirp_buffer.size() < m)
        chirp_buffer.resize(m);
    std::fill_n(chirp_buffer.begin(), m, Complex{0, 0});
    Real *buffer = reinterpret_cast<Real *>(chirp_buffer.data());
    kernels::cmulInterleavedOut(buffer, reinterpret_cast<const Real *>(data),
                                reinterpret_cast<const Real *>(chirp.data()),
                                n);
    inner->forward(chirp_buffer.data());
    kernels::cmulInterleaved(
        buffer, reinterpret_cast<const Real *>(chirp_spectrum.data()), m);
    inner->inverse(chirp_buffer.data());
    kernels::cmulInterleavedOut(reinterpret_cast<Real *>(data), buffer,
                                reinterpret_cast<const Real *>(chirp.data()),
                                n);
}

FftPlan::FftPlan(std::size_t n) : impl_(std::make_unique<Impl>())
{
    if (n == 0)
        throw std::invalid_argument("FftPlan: zero length");
    impl_->n = n;
    auto factors = factorize(n);
    bool smooth = factors.empty() ||
                  factors.back() <= kMaxDirectRadix;
    if (smooth)
        impl_->buildMixedRadix(factors);
    else
        impl_->buildBluestein();
}

FftPlan::~FftPlan() = default;
FftPlan::FftPlan(FftPlan &&) noexcept = default;
FftPlan &FftPlan::operator=(FftPlan &&) noexcept = default;

std::size_t
FftPlan::size() const
{
    return impl_->n;
}

void
FftPlan::forward(Complex *data) const
{
    if (impl_->n == 1)
        return;
    if (impl_->bluestein)
        impl_->executeBluestein(data);
    else
        impl_->executeMixed(data);
}

void
FftPlan::inverse(Complex *data) const
{
    const std::size_t n = impl_->n;
    if (n == 1)
        return;
    for (std::size_t i = 0; i < n; ++i)
        data[i] = std::conj(data[i]);
    forward(data);
    const Real scale = Real(1) / static_cast<Real>(n);
    for (std::size_t i = 0; i < n; ++i)
        data[i] = std::conj(data[i]) * scale;
}

namespace {

/** Plan cache shared by every Fft2d / Bluestein inner plan in the process. */
struct PlanCache
{
    Mutex mutex;
    std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>> plans
        LIGHTRIDGE_GUARDED_BY(mutex);
};

PlanCache &
planCache()
{
    static PlanCache cache;
    return cache;
}

/**
 * Resolve the pool Fft2d should shard 1-D transforms across, or nullptr
 * for serial execution. Serial whenever the pool has no real workers,
 * the caller is itself a pool worker (sample-parallel batches already
 * saturate the pool; nesting would deadlock the queue), or the grid is
 * too small to amortize a wake/join.
 */
ThreadPool *
fft2dPool(ThreadPool *pool, std::size_t elements)
{
    if (elements < kFft2dParallelMinElements)
        return nullptr;
    if (ThreadPool::insideWorker())
        return nullptr;
    ThreadPool *chosen = pool ? pool : &ThreadPool::global();
    return chosen->workerCount() > 1 ? chosen : nullptr;
}

} // namespace

std::shared_ptr<const FftPlan>
acquireFftPlan(std::size_t n)
{
    PlanCache &cache = planCache();
    {
        MutexLock lock(cache.mutex);
        auto it = cache.plans.find(n);
        if (it != cache.plans.end())
            return it->second;
    }
    // Build outside the lock: plan construction may itself acquire a
    // (smaller) inner plan via the Bluestein path, and large twiddle tables
    // should not serialize unrelated lookups.
    auto plan = std::make_shared<const FftPlan>(n);
    MutexLock lock(cache.mutex);
    auto [it, inserted] = cache.plans.emplace(n, std::move(plan));
    return it->second;
}

std::size_t
fftPlanCacheSize()
{
    PlanCache &cache = planCache();
    MutexLock lock(cache.mutex);
    return cache.plans.size();
}

void
clearFftPlanCache()
{
    PlanCache &cache = planCache();
    MutexLock lock(cache.mutex);
    cache.plans.clear();
}

Fft2d::Fft2d(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_plan_(acquireFftPlan(cols)),
      col_plan_(rows == cols ? row_plan_ : acquireFftPlan(rows))
{}

void
Fft2d::transformRows(Field *field, bool inverse, ThreadPool *pool) const
{
    Complex *data = field->data();
    auto one_row = [&](std::size_t r) {
        if (inverse)
            row_plan_->inverse(data + r * cols_);
        else
            row_plan_->forward(data + r * cols_);
    };
    if (ThreadPool *p = fft2dPool(pool, rows_ * cols_)) {
        p->parallelFor(rows_, one_row);
        return;
    }
    for (std::size_t r = 0; r < rows_; ++r)
        one_row(r);
}

void
Fft2d::transformColumns(Field *field, bool inverse, ThreadPool *pool) const
{
    // Columns are transformed in tiles of adjacent columns: the gather
    // then reads kColumnTile consecutive samples per row (full cache
    // lines) instead of one strided sample per pass, which is what makes
    // the column half of fft2 memory-friendly on large grids. Each tile
    // is staged column-contiguous so the 1-D plans run on unit stride.
    constexpr std::size_t kColumnTile = 8;
    Complex *data = field->data();
    const std::size_t tiles = (cols_ + kColumnTile - 1) / kColumnTile;
    auto one_tile = [&](std::size_t t) {
        // Per-thread staging buffer, reused across a worker's tiles.
        static thread_local std::vector<Complex> stage;
        if (stage.size() < rows_ * kColumnTile)
            stage.resize(rows_ * kColumnTile);
        const std::size_t c0 = t * kColumnTile;
        const std::size_t width = std::min(kColumnTile, cols_ - c0);
        for (std::size_t r = 0; r < rows_; ++r) {
            const Complex *src = data + r * cols_ + c0;
            for (std::size_t j = 0; j < width; ++j)
                stage[j * rows_ + r] = src[j];
        }
        for (std::size_t j = 0; j < width; ++j) {
            if (inverse)
                col_plan_->inverse(stage.data() + j * rows_);
            else
                col_plan_->forward(stage.data() + j * rows_);
        }
        for (std::size_t r = 0; r < rows_; ++r) {
            Complex *dst = data + r * cols_ + c0;
            for (std::size_t j = 0; j < width; ++j)
                dst[j] = stage[j * rows_ + r];
        }
    };
    if (ThreadPool *p = fft2dPool(pool, rows_ * cols_)) {
        p->parallelFor(tiles, one_tile);
        return;
    }
    for (std::size_t t = 0; t < tiles; ++t)
        one_tile(t);
}

void
Fft2d::forward(Field *field, ThreadPool *pool) const
{
    assert(field->rows() == rows_ && field->cols() == cols_);
    transformRows(field, false, pool);
    transformColumns(field, false, pool);
}

void
Fft2d::inverse(Field *field, ThreadPool *pool) const
{
    assert(field->rows() == rows_ && field->cols() == cols_);
    transformRows(field, true, pool);
    transformColumns(field, true, pool);
}

namespace {

Field
circularShift(const Field &in, std::size_t dr, std::size_t dc)
{
    Field out(in.rows(), in.cols());
    for (std::size_t r = 0; r < in.rows(); ++r) {
        std::size_t rr = (r + dr) % in.rows();
        for (std::size_t c = 0; c < in.cols(); ++c) {
            std::size_t cc = (c + dc) % in.cols();
            out(rr, cc) = in(r, c);
        }
    }
    return out;
}

} // namespace

Field
fftshift(const Field &in)
{
    return circularShift(in, in.rows() / 2, in.cols() / 2);
}

Field
ifftshift(const Field &in)
{
    return circularShift(in, in.rows() - in.rows() / 2,
                         in.cols() - in.cols() / 2);
}

std::size_t
nextFastLength(std::size_t n)
{
    if (n == 0)
        return 1;
    for (;; ++n) {
        std::size_t rem = n;
        for (std::size_t p : {2, 3, 5, 7})
            while (rem % p == 0)
                rem /= p;
        if (rem == 1)
            return n;
    }
}

} // namespace lightridge
