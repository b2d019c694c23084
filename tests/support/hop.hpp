/**
 * @file
 * Test helpers: one free-space hop returning a fresh Field.
 *
 * Property tests compose hops (`hopAdjoint(prop, hopForward(prop, x))`),
 * which reads best by value. These helpers run the library's only
 * propagation path, Propagator::forwardInto / adjointInto, with the
 * calling thread's workspace.
 */
#pragma once

#include "optics/propagator.hpp"

namespace lightridge {

inline Field
hopForward(const Propagator &prop, const Field &in)
{
    Field out;
    prop.forwardInto(in, out, PropagationWorkspace::threadLocal());
    return out;
}

inline Field
hopAdjoint(const Propagator &prop, const Field &grad_out)
{
    Field out;
    prop.adjointInto(grad_out, out, PropagationWorkspace::threadLocal());
    return out;
}

} // namespace lightridge
