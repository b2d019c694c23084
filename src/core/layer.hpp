/**
 * @file
 * Layer abstraction for differentiable DONN graphs.
 *
 * Gradients follow the Wirtinger adjoint convention: for a real loss L and
 * complex field U, the gradient field is G with dL = Re(sum conj(G) * dU).
 * Each layer caches whatever it needs during forwardInPlace() and consumes
 * it in backwardInPlace(). Parameter gradients accumulate across a batch
 * until zeroGrad().
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "optics/workspace.hpp"
#include "tensor/field.hpp"
#include "utils/json.hpp"
#include "utils/rng.hpp"
#include "utils/types.hpp"

namespace lightridge {

struct LayerPerturbation;

/** Mutable view of one trainable parameter buffer and its gradient. */
struct ParamView
{
    std::string name;
    std::vector<Real> *value = nullptr;
    std::vector<Real> *grad = nullptr;
};

/** Base class of all differentiable DONN building blocks. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /** Stable type tag used in serialization. */
    virtual std::string kind() const = 0;

    /**
     * Training forward: `u` holds the input on entry and the layer
     * output on return. Caches what backwardInPlace() needs; this is
     * also the only pass that draws Gumbel samples or normalizes.
     * Propagation scratch is leased from the workspace, so steady-state
     * execution allocates nothing.
     */
    virtual void forwardInPlace(Field &u, PropagationWorkspace &workspace) = 0;

    /**
     * Backward: `g` holds dL/d(out) on entry and dL/d(in) on return;
     * parameter gradients accumulate. Must follow a forwardInPlace().
     */
    virtual void backwardInPlace(Field &g,
                                 PropagationWorkspace &workspace) = 0;

    /**
     * Pure inference in place. Implementations must not mutate any layer
     * state, so one shared layer instance can propagate independent
     * samples concurrently (the batched emulation and serving paths).
     */
    virtual void inferInPlace(Field &u,
                              PropagationWorkspace &workspace) const = 0;

    /**
     * Attach one sampled misalignment realization (or detach with
     * nullptr). The pointed-to realization must outlive every pass
     * made while attached; it is read-only during compute, so several
     * threads may evaluate one perturbed layer concurrently. Non-optical
     * layers ignore the call. Clones start detached.
     */
    virtual void
    setPerturbation(const LayerPerturbation *perturbation)
    {
        (void)perturbation;
    }

    /**
     * Deep copy of the layer: parameters and gradients are copied,
     * propagators (immutable) are shared. Used to build per-worker model
     * replicas for data-parallel training.
     */
    virtual std::unique_ptr<Layer> clone() const = 0;

    /** Trainable parameter views (empty for stateless layers). */
    virtual std::vector<ParamView> params() { return {}; }

    /** Reset all parameter gradients to zero. */
    void
    zeroGrad()
    {
        for (ParamView p : params())
            if (p.grad)
                std::fill(p.grad->begin(), p.grad->end(), Real(0));
    }

    /** Serialize structure + weights. */
    virtual Json toJson() const = 0;
};

using LayerPtr = std::unique_ptr<Layer>;

} // namespace lightridge
