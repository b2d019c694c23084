#include "fft/fft.hpp"

// Deliberately clean: FFT plan calls and Into-style calls.
void cleanCalls(lightridge::Fft2d *fft_, lightridge::Field &u)
{
    fft_->forward(&u);
    // detector_.forward(...) is the detector head, not a propagation hop.
}

void cleanInto(lightridge::Field &u, lightridge::Field &scratch)
{
    // Reusing caller-provided buffers inside an Into body is the contract.
    scratch = u;
}
