/**
 * @file
 * Impulse-response extraction and streaming convolution.
 *
 * The paper computes supply voltage by convolving the Wattch per-cycle
 * current trace with the package impulse response (Section 3.1, Fig. 7).
 * vguard simulates by direct state-space stepping (pdn_sim.hpp) and
 * keeps the convolution pipeline as the test oracle that the two agree.
 */

#ifndef VGUARD_PDN_IMPULSE_HPP
#define VGUARD_PDN_IMPULSE_HPP

#include <cstddef>
#include <vector>

#include "pdn/package_model.hpp"

namespace vguard::pdn {

/**
 * Voltage impulse response h[k]: die-voltage deviation at cycle k caused
 * by a 1 A, one-cycle current pulse at cycle 0 (Vdd held). Taps are
 * mostly negative (current draw dips the voltage) with sign changes from
 * ringing; Σ h[k] = −R_s.
 *
 * The kernel ends once the waveform has settled: 128 taps in a row
 * below 1e-9 of the peak tap. A package that has not settled by 2^15
 * taps is cut there, with a warning.
 */
std::vector<double> impulseResponse(const PackageModel &model);

/**
 * Voltage step response: deviation trace for a sustained 1 A step
 * starting at cycle 0 (the right-hand plot of the paper's Fig. 2,
 * mirrored to the voltage domain).
 */
std::vector<double> stepResponse(const PackageModel &model, size_t cycles);

/**
 * Naive streaming convolver: v(t) = vdd + Σ_k h[k]·I(t−k) evaluated
 * online with a ring buffer, O(taps) per cycle.
 *
 * This is the *reference* implementation: simple enough to audit by
 * eye, it is the oracle of the convolution ≡ state-space tests. The
 * simulator itself steps PdnSim, a fixed-size state update per cycle.
 */
class Convolver
{
  public:
    /**
     * @param impulse Kernel h (from impulseResponse()).
     * @param vdd     Regulator set point added to the deviation.
     * @param iBias   Current history is pre-filled with this value so
     *                the convolver starts at the corresponding DC point.
     */
    Convolver(std::vector<double> impulse, double vdd, double iBias = 0.0);

    /** Push this cycle's current; returns this cycle's die voltage. */
    double step(double amps);

    /** Re-fill history with the bias current. */
    void reset();

    double vdd() const { return vdd_; }

  private:
    std::vector<double> kernel_;   ///< h[0..K)
    std::vector<double> history_;  ///< ring buffer of recent currents
    size_t head_ = 0;              ///< index of the most recent sample
    double vdd_;
    double iBias_;
};

} // namespace vguard::pdn

#endif // VGUARD_PDN_IMPULSE_HPP
