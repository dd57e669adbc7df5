/**
 * @file
 * Signal builders: unit-less current shapes for response studies
 * (the spikes and pulse trains of Figs. 3-6).
 */

#ifndef VGUARD_LINSYS_SIGNALS_HPP
#define VGUARD_LINSYS_SIGNALS_HPP

#include <cstddef>
#include <vector>

namespace vguard::linsys {

/** Constant signal of @p len samples. */
std::vector<double> constantSignal(size_t len, double value);

/**
 * Rectangular pulse: baseline with [start, start+width) raised to
 * @p high. Used for the narrow/wide spike studies of Figs. 3-4.
 */
std::vector<double> pulseSignal(size_t len, double baseline, double high,
                                size_t start, size_t width);

/**
 * Periodic train of rectangular pulses (Fig. 6's resonant stress
 * pattern): pulses of @p width samples every @p period samples starting
 * at @p start.
 */
std::vector<double> pulseTrainSignal(size_t len, double baseline,
                                     double high, size_t start,
                                     size_t width, size_t period);

} // namespace vguard::linsys

#endif // VGUARD_LINSYS_SIGNALS_HPP
