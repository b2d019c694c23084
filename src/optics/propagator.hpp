/**
 * @file
 * Cached free-space propagator: the "diffraction operator" of a DONN.
 *
 * One Propagator models one hop of length z between planes (source->layer,
 * layer->layer, or layer->detector). Construction precomputes and caches
 * the frequency-domain kernel and FFT plans; forwardInto() then runs the
 * fused FFT2 -> Hadamard -> iFFT2 pipeline of the paper's Eqs. 5-7 with no
 * intermediate allocations. adjointInto() applies the conjugate-transposed
 * operator, which is exactly what error backpropagation through a linear
 * optical element requires (Section 2.1: "fully differentiable from the
 * detector to the laser source").
 */
#pragma once

#include <cstddef>
#include <memory>

#include "fft/fft.hpp"
#include "optics/diffraction.hpp"
#include "optics/grid.hpp"
#include "optics/workspace.hpp"
#include "tensor/field.hpp"

namespace lightridge {

struct HopPerturbation;

/** Full specification of one free-space hop. */
struct PropagatorConfig
{
    Grid grid;                 ///< plane sampling (n, pitch)
    Real wavelength = 532e-9;  ///< laser wavelength [m]
    Real distance = 0.3;       ///< hop length z [m]
    Diffraction approx = Diffraction::RayleighSommerfeld;
    PropagationMethod method = PropagationMethod::TransferFunction;
    /**
     * Zero-padding factor: 1 reproduces the paper's same-size circular
     * spectral algorithm; 2 guards against wraparound (linear convolution).
     */
    std::size_t pad_factor = 1;
};

/** Precomputed, immutable, thread-safe free-space propagation operator. */
class Propagator
{
  public:
    explicit Propagator(const PropagatorConfig &config);

    const PropagatorConfig &config() const { return config_; }

    /**
     * Propagate `in` over the hop into `out` (input shape must match the
     * grid), running the full pad -> FFT2 -> Hadamard -> iFFT2 -> crop
     * pipeline with zero heap allocations in steady state: padded
     * scratch is leased from the workspace and `out` is resized at most
     * once. `out` may alias `in` (the layer pipeline propagates fields
     * fully in place).
     *
     * `hop` optionally applies one sampled misalignment realization
     * (see optics/perturbation.hpp): a non-null perturbed kernel
     * replaces the nominal transfer function (axial jitter at z + dz)
     * and the separable shift ramps multiply the spectrum after the
     * kernel Hadamard (lateral shift). Passing nullptr is
     * bitwise-identical to the unperturbed pipeline.
     */
    void forwardInto(const Field &in, Field &out,
                     PropagationWorkspace &workspace,
                     const HopPerturbation *hop = nullptr) const;

    /**
     * Apply the conjugate transpose of forwardInto() to a Wirtinger
     * gradient field; `out` may alias the input. For unit-modulus
     * kernels this equals propagation backward over -z. With a
     * perturbation, applies the exact adjoint of the perturbed operator
     * (conjugate kernel and conjugate shift ramps).
     */
    void adjointInto(const Field &grad_out, Field &out,
                     PropagationWorkspace &workspace,
                     const HopPerturbation *hop = nullptr) const;

    /** Sample pitch of the output plane (differs for Fraunhofer). */
    Real outputPitch() const;

    /** The cached frequency-domain kernel (empty for Fraunhofer). */
    const Field &kernel() const;

    /** Working (padded) transform size; shift ramps and perturbed
     *  kernels must be built at this size. */
    std::size_t paddedSize() const { return padded_n_; }

  private:
    void convolveInto(const Field &in, Field &out, bool conjugate_kernel,
                      PropagationWorkspace &workspace,
                      const HopPerturbation *hop) const;
    void applyShiftRamp(Complex *spectrum, const HopPerturbation &hop,
                        bool conjugate) const;
    void fraunhoferForwardInto(const Field &in, Field &out) const;
    void fraunhoferAdjointInto(const Field &grad_out, Field &out) const;

    PropagatorConfig config_;
    std::size_t padded_n_ = 0;  ///< working size (>= grid.n)
    std::shared_ptr<const Field> kernel_; ///< shared cached transfer function
    Field quad_phase_;          ///< Fraunhofer output factor K(a, b)
    std::shared_ptr<Fft2d> fft_;
};

/**
 * Process-wide transfer-function cache.
 *
 * Computing the angular-spectrum / Fresnel kernel is O(n^2) transcendental
 * work (plus a full FFT2 for impulse-response kernels); every Propagator
 * constructed for the same (approx, method, grid, wavelength, distance)
 * tuple shares one immutable kernel Field through this cache. Lookup is
 * keyed on the exact bit patterns of the physical parameters, so a hit is
 * bitwise-identical to recomputing the kernel from scratch.
 */
std::shared_ptr<const Field>
acquireTransferFunction(Diffraction approx, PropagationMethod method,
                        const Grid &grid, Real wavelength, Real z);

/** Hit/miss counters of the transfer-function cache (for tests/bench). */
struct TransferFunctionCacheStats
{
    std::size_t entries = 0;
    std::size_t hits = 0;
    std::size_t misses = 0;
};
TransferFunctionCacheStats transferFunctionCacheStats();

/** Drop all cached kernels and reset the hit/miss counters. */
void clearTransferFunctionCache();

/** Current transfer-function cache capacity (entries). */
std::size_t transferFunctionCacheCapacity();

/**
 * Set the cache capacity; returns the previous value. Excess entries are
 * evicted immediately in LRU order. Used by tests (to make eviction
 * observable at small sizes) and long DSE sweeps that want a larger
 * resident set.
 */
std::size_t setTransferFunctionCacheCapacity(std::size_t capacity);

} // namespace lightridge
