/**
 * @file
 * The dI/dt stressmark (paper Section 3.2, Fig. 8).
 *
 * The stressmark is a loop engineered so its current waveform
 * approximates a square wave at the package resonant frequency:
 *
 *  - a *low-current phase*: a chain of dependent floating-point divides
 *    (divt) that stalls the whole machine on the unpipelined divider;
 *  - a *high-current phase*: the Fig. 8 store/reload/cmov sequence
 *    followed by a burst of independent stores and ALU operations with
 *    operands chosen for maximum switching activity (alternating bit
 *    patterns).
 *
 * Like the paper's hand tuning ("the number of instructions in the
 * loop is chosen so that its execution time will closely match the
 * resonant period"), StressmarkBuilder::calibrate() searches the burst
 * and divide-chain lengths by trial simulation until the measured loop
 * period lands on the target resonant period.
 */

#ifndef VGUARD_WORKLOADS_STRESSMARK_HPP
#define VGUARD_WORKLOADS_STRESSMARK_HPP

#include <cstdint>

#include "cpu/config.hpp"
#include "isa/program.hpp"

namespace vguard::workloads {

/** Structure of the stressmark loop. */
struct StressmarkParams
{
    unsigned divChain = 3;       ///< dependent divt ops (low phase)
    unsigned burstStores = 12;   ///< independent stq ops (high phase)
    unsigned burstAlu = 24;      ///< independent ALU ops (high phase)
    uint64_t iterations = 1ull << 40;  ///< effectively infinite
};

/** Result of period calibration. */
struct StressmarkCalibration
{
    StressmarkParams params;
    double measuredPeriodCycles = 0.0;  ///< steady-state loop period
    double highPhaseCurrentA = 0.0;     ///< mean current, top quartile
    double lowPhaseCurrentA = 0.0;      ///< mean current, bottom quartile
    unsigned gridPoints = 0;            ///< candidate loops simulated
};

/** Builds (and tunes) stressmark programs. */
class StressmarkBuilder
{
  public:
    /** Assemble the stressmark loop with the given structure. */
    static isa::Program build(const StressmarkParams &params);

    /**
     * Measure the steady-state loop period of @p params on the given
     * machine (cycles per loop iteration after warm-up).
     */
    static double measurePeriod(const StressmarkParams &params,
                                const cpu::CpuConfig &cfg,
                                uint64_t cycles = 40000);

    /**
     * Search divide-chain and burst lengths so the loop period matches
     * @p targetPeriodCycles (the package resonant period, ~60 cycles
     * for a 50 MHz package at 3 GHz). The grid's candidates run in
     * parallel on up to 8 threads; the winner is the same at any
     * thread count.
     */
    static StressmarkCalibration calibrate(unsigned targetPeriodCycles,
                                           const cpu::CpuConfig &cfg);
};

} // namespace vguard::workloads

#endif // VGUARD_WORKLOADS_STRESSMARK_HPP
