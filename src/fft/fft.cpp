#include "fft/fft.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

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
 * Radix sequence of the Stockham passes: pairs of 2s fuse into radix-4
 * passes (half the sweeps over the dominant power-of-two part), any
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

/** Split real/imag view of one bundle buffer. */
struct SplitBuffer
{
    Real *re;
    Real *im;
};

/**
 * Thread-local ping-pong pair for the passes of one bundle. Plans never
 * touch it themselves: the caller (a lone plan or one Fft2d bundle)
 * stages into `a`, runs the plan over a and b, and unstages from
 * whichever one holds the result, so one pair per thread suffices.
 */
struct BundleScratch
{
    std::vector<Real> a_re, a_im, b_re, b_im;

    SplitBuffer a() { return {a_re.data(), a_im.data()}; }
    SplitBuffer b() { return {b_re.data(), b_im.data()}; }
};

BundleScratch &
tlsBundleScratch(std::size_t reals)
{
    static thread_local BundleScratch scratch;
    if (scratch.a_re.size() < reals) {
        scratch.a_re.resize(reals);
        scratch.a_im.resize(reals);
        scratch.b_re.resize(reals);
        scratch.b_im.resize(reals);
    }
    return scratch;
}

/**
 * Stage `lanes` transforms of length n into a bundle: element k of
 * transform v is src[k*elem_stride + v*lane_stride] and lands at k*lanes
 * + v. An inverse transform conjugates on the way in (it runs as the
 * conjugate of a forward one). Either the lanes (column bundles) or the
 * elements (rows, lone plans) are adjacent in memory; the rows take a
 * block transpose, two lanes at a time.
 */
template <std::size_t Lanes>
void
loadBundleT(const Complex *src, std::size_t n, std::size_t lanes,
            std::size_t elem_stride, std::size_t lane_stride, bool conjugate,
            SplitBuffer dst)
{
    const std::size_t L = Lanes ? Lanes : lanes;
    const Real sign = conjugate ? Real(-1) : Real(1);
    const Real *in = reinterpret_cast<const Real *>(src);
    if (lane_stride == 1) {
        for (std::size_t k = 0; k < n; ++k) {
            const Real *e = in + 2 * k * elem_stride;
            Real *dr = dst.re + k * L, *di = dst.im + k * L;
            for (std::size_t v = 0; v < L; ++v) {
                dr[v] = e[2 * v];
                di[v] = sign * e[2 * v + 1];
            }
        }
        return;
    }
    std::size_t v = 0;
    for (; v + 1 < L; v += 2) {
        const Real *r0 = in + 2 * v * lane_stride;
        const Real *r1 = r0 + 2 * lane_stride;
        for (std::size_t k = 0; k < n; ++k) {
            dst.re[k * L + v] = r0[2 * k];
            dst.re[k * L + v + 1] = r1[2 * k];
            dst.im[k * L + v] = sign * r0[2 * k + 1];
            dst.im[k * L + v + 1] = sign * r1[2 * k + 1];
        }
    }
    for (; v < L; ++v) {
        const Real *r0 = in + 2 * v * lane_stride;
        for (std::size_t k = 0; k < n; ++k) {
            dst.re[k * L + v] = r0[2 * k];
            dst.im[k * L + v] = sign * r0[2 * k + 1];
        }
    }
}

void
loadBundle(const Complex *src, std::size_t n, std::size_t lanes,
           std::size_t elem_stride, std::size_t lane_stride, bool conjugate,
           SplitBuffer dst)
{
    if (lanes == kFftBundleLanes)
        loadBundleT<kFftBundleLanes>(src, n, lanes, elem_stride,
                                     lane_stride, conjugate, dst);
    else
        loadBundleT<0>(src, n, lanes, elem_stride, lane_stride, conjugate,
                       dst);
}

/** Inverse of loadBundle; an inverse conjugates and scales by 1/n. */
template <std::size_t Lanes>
void
storeBundleT(SplitBuffer src, std::size_t n, std::size_t lanes,
             std::size_t elem_stride, std::size_t lane_stride, bool inverse,
             Complex *dst)
{
    const std::size_t L = Lanes ? Lanes : lanes;
    const Real scale = inverse ? Real(1) / static_cast<Real>(n) : Real(1);
    const Real im_scale = inverse ? -scale : scale;
    Real *out = reinterpret_cast<Real *>(dst);
    if (lane_stride == 1) {
        for (std::size_t k = 0; k < n; ++k) {
            Real *e = out + 2 * k * elem_stride;
            const Real *sr = src.re + k * L, *si = src.im + k * L;
            for (std::size_t v = 0; v < L; ++v) {
                e[2 * v] = sr[v] * scale;
                e[2 * v + 1] = si[v] * im_scale;
            }
        }
        return;
    }
    std::size_t v = 0;
    for (; v + 1 < L; v += 2) {
        Real *r0 = out + 2 * v * lane_stride;
        Real *r1 = r0 + 2 * lane_stride;
        for (std::size_t k = 0; k < n; ++k) {
            r0[2 * k] = src.re[k * L + v] * scale;
            r1[2 * k] = src.re[k * L + v + 1] * scale;
            r0[2 * k + 1] = src.im[k * L + v] * im_scale;
            r1[2 * k + 1] = src.im[k * L + v + 1] * im_scale;
        }
    }
    for (; v < L; ++v) {
        Real *r0 = out + 2 * v * lane_stride;
        for (std::size_t k = 0; k < n; ++k) {
            r0[2 * k] = src.re[k * L + v] * scale;
            r0[2 * k + 1] = src.im[k * L + v] * im_scale;
        }
    }
}

void
storeBundle(SplitBuffer src, std::size_t n, std::size_t lanes,
            std::size_t elem_stride, std::size_t lane_stride, bool inverse,
            Complex *dst)
{
    if (lanes == kFftBundleLanes)
        storeBundleT<kFftBundleLanes>(src, n, lanes, elem_stride,
                                      lane_stride, inverse, dst);
    else
        storeBundleT<0>(src, n, lanes, elem_stride, lane_stride, inverse,
                        dst);
}

/**
 * y_k = c_k * y_k over the first n elements of a bundle, c broadcast
 * across the lanes; conj_in conjugates y first and conj_out the product.
 * These are Bluestein's chirp and chirp-spectrum products.
 */
void
bundleMultiply(SplitBuffer y, const Real *c_re, const Real *c_im,
               std::size_t n, std::size_t lanes, bool conj_in, bool conj_out)
{
    const Real in_sign = conj_in ? Real(-1) : Real(1);
    const Real out_sign = conj_out ? Real(-1) : Real(1);
    for (std::size_t k = 0; k < n; ++k) {
        const Real cr = c_re[k], ci = c_im[k];
        Real *yr = y.re + k * lanes, *yi = y.im + k * lanes;
        for (std::size_t v = 0; v < lanes; ++v) {
            const Real xr = yr[v], xi = in_sign * yi[v];
            yr[v] = xr * cr - xi * ci;
            yi[v] = out_sign * (xr * ci + xi * cr);
        }
    }
}

} // namespace

/**
 * Plan internals. Two strategies:
 *  - Mixed radix: one iterative Stockham pass per radix (groupRadices),
 *    each with its twiddle table, over a bundle of any lane count.
 *  - Bluestein: chirp products around a power-of-two inner plan's
 *    passes, over the same bundle layout.
 */
struct FftPlan::Impl
{
    std::size_t n = 0;
    bool bluestein = false;

    // Mixed-radix state: pass i splits sub-transforms of length p*m into
    // p of length m. tw holds W_{pm}^{j*u} j-major (kernels::stockhamPass)
    // and root holds W_p^t for the generic radices (empty for p <= 5).
    struct Pass
    {
        std::size_t p = 0, m = 0;
        std::vector<Real> tw_re, tw_im, root_re, root_im;
    };
    std::vector<Pass> passes;

    // Bluestein state.
    std::size_t conv = 0;                 // power-of-two conv length
    std::vector<Real> chirp_re, chirp_im; // a_k = exp(-j*pi*k^2/n)
    std::vector<Real> spectrum_re, spectrum_im; // FFT(conj chirp) / conv
    std::shared_ptr<const FftPlan> inner; // power-of-two plan, length conv

    void buildMixedRadix(const std::vector<std::size_t> &factors);
    void buildBluestein();

    /** Complex elements per lane the bundle buffers must hold. */
    std::size_t bufferLength() const { return bluestein ? conv : n; }

    /**
     * Forward transforms of the `lanes` bundled sequences staged in a,
     * using b as the ping-pong partner (both bufferLength() * lanes
     * long). Returns whichever of a and b holds the result.
     */
    SplitBuffer run(SplitBuffer a, SplitBuffer b, std::size_t lanes) const;
    SplitBuffer runBluestein(SplitBuffer a, SplitBuffer b,
                             std::size_t lanes) const;

    /** Lone in-place transform: a bundle of one lane. */
    void transformOne(Complex *data, bool inverse) const;
};

void
FftPlan::Impl::buildMixedRadix(const std::vector<std::size_t> &factors)
{
    std::size_t cur = n;
    for (std::size_t p : groupRadices(factors)) {
        Pass pass;
        pass.p = p;
        pass.m = cur / p;
        pass.tw_re.resize(pass.m * (p - 1));
        pass.tw_im.resize(pass.m * (p - 1));
        for (std::size_t j = 0; j < pass.m; ++j)
            for (std::size_t u = 1; u < p; ++u) {
                std::size_t idx = (j * u) % cur; // keep the argument small
                Real angle = -kTwoPi * static_cast<Real>(idx) /
                             static_cast<Real>(cur);
                pass.tw_re[j * (p - 1) + u - 1] = std::cos(angle);
                pass.tw_im[j * (p - 1) + u - 1] = std::sin(angle);
            }
        if (p > 5) {
            for (std::size_t t = 0; t < p; ++t) {
                Real angle =
                    -kTwoPi * static_cast<Real>(t) / static_cast<Real>(p);
                pass.root_re.push_back(std::cos(angle));
                pass.root_im.push_back(std::sin(angle));
            }
        }
        cur = pass.m;
        passes.push_back(std::move(pass));
    }
}

void
FftPlan::Impl::buildBluestein()
{
    bluestein = true;
    conv = 1;
    while (conv < 2 * n - 1)
        conv <<= 1;
    // Power-of-two inner plans recur across Bluestein lengths (every prime
    // in [2^{k-1}, 2^k) shares the same conv length), so take them from the
    // shared cache.
    inner = acquireFftPlan(conv);

    chirp_re.resize(n);
    chirp_im.resize(n);
    std::vector<Complex> kernel(conv, Complex{0, 0});
    for (std::size_t k = 0; k < n; ++k) {
        // k^2 mod 2n keeps the argument small for precision.
        std::size_t k2 = (k * k) % (2 * n);
        Real angle = -kPi * static_cast<Real>(k2) / static_cast<Real>(n);
        chirp_re[k] = std::cos(angle);
        chirp_im[k] = std::sin(angle);
        const Complex b{chirp_re[k], -chirp_im[k]};
        kernel[k] = b;
        if (k != 0)
            kernel[conv - k] = b;
    }
    inner->forward(kernel.data());
    // The inverse transform's 1/conv rides on the spectrum; conv is a
    // power of two, so the scale is exact.
    const Real scale = Real(1) / static_cast<Real>(conv);
    spectrum_re.resize(conv);
    spectrum_im.resize(conv);
    for (std::size_t k = 0; k < conv; ++k) {
        spectrum_re[k] = kernel[k].real() * scale;
        spectrum_im[k] = kernel[k].imag() * scale;
    }
}

SplitBuffer
FftPlan::Impl::run(SplitBuffer a, SplitBuffer b, std::size_t lanes) const
{
    if (bluestein)
        return runBluestein(a, b, lanes);
    std::size_t block = lanes;
    for (const Pass &pass : passes) {
        kernels::stockhamPass(pass.p, pass.m, block, a.re, a.im, b.re, b.im,
                              pass.tw_re.data(), pass.tw_im.data(),
                              pass.root_re.data(), pass.root_im.data());
        std::swap(a, b);
        block *= pass.p;
    }
    return a;
}

SplitBuffer
FftPlan::Impl::runBluestein(SplitBuffer a, SplitBuffer b,
                            std::size_t lanes) const
{
    // X_k = a_k * sum_j (x_j a_j) conj(a_{k-j}): chirp the input, zero-pad
    // it to conv, and convolve with conj(a) through the inner plan. The
    // inverse transform runs as the conjugate of a forward one.
    bundleMultiply(a, chirp_re.data(), chirp_im.data(), n, lanes, false,
                   false);
    std::fill(a.re + n * lanes, a.re + conv * lanes, Real(0));
    std::fill(a.im + n * lanes, a.im + conv * lanes, Real(0));
    const Impl &core = *inner->impl_;
    SplitBuffer y = core.run(a, b, lanes);
    bundleMultiply(y, spectrum_re.data(), spectrum_im.data(), conv, lanes,
                   false, true);
    SplitBuffer w = core.run(y, y.re == a.re ? b : a, lanes);
    bundleMultiply(w, chirp_re.data(), chirp_im.data(), n, lanes, true,
                   false);
    return w;
}

void
FftPlan::Impl::transformOne(Complex *data, bool inverse) const
{
    BundleScratch &scratch = tlsBundleScratch(bufferLength());
    loadBundle(data, n, 1, 1, n, inverse, scratch.a());
    storeBundle(run(scratch.a(), scratch.b(), 1), n, 1, 1, n, inverse,
                data);
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
    impl_->transformOne(data, false);
}

void
FftPlan::inverse(Complex *data) const
{
    impl_->transformOne(data, true);
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
Fft2d::transform(Field *field, bool inverse, ThreadPool *pool) const
{
    // Rows then columns, kFftBundleLanes transforms at a time. A column
    // bundle is 8 adjacent columns, so staging reads them as they lie; a
    // row bundle goes through a block transpose. Bundle boundaries are
    // fixed, so which thread runs a bundle never changes its numerics.
    Complex *data = field->data();
    auto axis = [&](const FftPlan::Impl &plan, std::size_t count,
                    std::size_t elem_stride, std::size_t lane_stride) {
        const std::size_t n = plan.n;
        auto one_bundle = [&](std::size_t b) {
            const std::size_t first = b * kFftBundleLanes;
            const std::size_t lanes =
                std::min(kFftBundleLanes, count - first);
            BundleScratch &scratch =
                tlsBundleScratch(plan.bufferLength() * kFftBundleLanes);
            Complex *base = data + first * lane_stride;
            loadBundle(base, n, lanes, elem_stride, lane_stride, inverse,
                       scratch.a());
            storeBundle(plan.run(scratch.a(), scratch.b(), lanes), n, lanes,
                        elem_stride, lane_stride, inverse, base);
        };
        const std::size_t bundles =
            (count + kFftBundleLanes - 1) / kFftBundleLanes;
        if (ThreadPool *p = fft2dPool(pool, rows_ * cols_)) {
            p->parallelFor(bundles, one_bundle);
            return;
        }
        for (std::size_t b = 0; b < bundles; ++b)
            one_bundle(b);
    };
    axis(*row_plan_->impl_, rows_, 1, cols_);
    axis(*col_plan_->impl_, cols_, cols_, 1);
}

void
Fft2d::forward(Field *field, ThreadPool *pool) const
{
    assert(field->rows() == rows_ && field->cols() == cols_);
    transform(field, false, pool);
}

void
Fft2d::inverse(Field *field, ThreadPool *pool) const
{
    assert(field->rows() == rows_ && field->cols() == cols_);
    transform(field, true, pool);
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
