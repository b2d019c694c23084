/**
 * @file
 * Hardware deployment simulator: the software-to-hardware realization gap.
 *
 * deployRaw() models what happens when a raw-trained DONN is pushed onto a
 * physical device: continuous trained phases are quantized to the nearest
 * available device level, the device's coupled amplitude response applies,
 * and per-pixel fabrication variation perturbs every unit. deployCodesign()
 * does the same for a codesign-trained model, whose argmax states are
 * realizable exactly - only fabrication variation remains. Comparing the
 * two reproduces the out-of-box deployment-accuracy story of the paper's
 * Figure 1 (>= 30% degradation without codesign, ~3% with). A deployed
 * model is a stack of FixedModulationLayer (core/modulation_layer.hpp).
 */
#pragma once

#include <memory>

#include "core/dataset.hpp"
#include "core/model.hpp"
#include "hardware/cmos.hpp"
#include "hardware/slm.hpp"

namespace lightridge {

/** How trained phases are mapped to device control levels. */
enum class CalibrationMode
{
    /**
     * Out-of-box: assume a linear device response (no response-curve
     * measurement). This is what Fig. 1 calls deployment *before* the
     * expensive manual hardware calibration.
     */
    OutOfBox,
    /** Manually calibrated: nearest level by measured phase. */
    Calibrated,
};

/**
 * Deploy a raw-trained model onto a device: level quantization (per the
 * calibration mode) + amplitude coupling + fabrication variation.
 * Returns the hardware model.
 */
DonnModel deployRaw(const DonnModel &model, const SlmDevice &device,
                    const FabricationVariation &variation, Rng *rng,
                    CalibrationMode mode = CalibrationMode::OutOfBox);

/**
 * Deploy a codesign-trained model: argmax device states (exact) +
 * fabrication variation only.
 */
DonnModel deployCodesign(const DonnModel &model,
                         const FabricationVariation &variation, Rng *rng);

/**
 * Accuracy of a deployed model with the CMOS detector in the loop
 * (shot/read noise + ADC quantization before region integration).
 */
Real evaluateDeployed(const DonnModel &deployed, const ClassDataset &data,
                      const CmosDetector &cmos, Rng *rng);

/**
 * Detector-plane intensity as captured by the hardware camera for one
 * input image; used for the Fig. 6 simulation-vs-measurement comparison.
 */
RealMap captureDetectorImage(const DonnModel &deployed,
                             const RealMap &image,
                             const CmosDetector &cmos, Rng *rng);

} // namespace lightridge
