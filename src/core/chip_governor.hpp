/**
 * @file
 * Chip-level gate-budget governor for the many-core shared-PDN
 * simulation (ROADMAP item 1; cf. ControlPULP and "Power Regulation in
 * High Performance Multicore Processors", PAPERS.md).
 *
 * On a shared rail the per-core bang-bang loops interact: when a deep
 * droop trips many sensors in the same cycle, gating every core at
 * once removes N·ΔI of load in one step — an L·dI/dt kick that
 * overshoots the rail and converts the low emergency into a high one.
 * The governor sits above the local loops and arbitrates *concurrent*
 * throttles:
 *
 *  - a discrete PI law on the normalized rail-voltage error produces a
 *    gate budget — how many cores may gate simultaneously this cycle
 *    (deeper droop ⇒ larger budget, up to all N);
 *  - budget slots go to the gating requesters with the largest recent
 *    droop contribution (an EWMA of each core's current draw —
 *    throttling the hungriest cores buys the most relief per slot),
 *    ties broken by core index so arbitration is deterministic;
 *  - at least one requester is always granted: the local loop keeps
 *    its authority, the governor only bounds concurrency;
 *  - phantom-fire requests (voltage high) are always granted — extra
 *    draw damps the rail and never adds a release step.
 *
 * The integral term carries anti-windup clamping, following the
 * PidConfig idiom (pid_controller.hpp).
 */

#ifndef VGUARD_CORE_CHIP_GOVERNOR_HPP
#define VGUARD_CORE_CHIP_GOVERNOR_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vguard::core {

/** Governor gains and arbitration parameters. */
struct ChipGovernorConfig
{
    double kp = 1.0;            ///< proportional gain (per band-error)
    double ki = 0.02;           ///< integral gain
    double integralClamp = 4.0; ///< anti-windup bound on the I term
    /**
     * Setpoint as a fraction of nominal voltage. Like PidConfig::vRef
     * it sits deliberately below 1.0: under load the rail rides below
     * nominal by the IR drop, and a governor referenced at nominal
     * would keep an inflated budget standing.
     */
    double vRefFrac = 0.98;
    /** EWMA smoothing of per-core draw (droop contribution ranking). */
    double ewmaAlpha = 0.1;
};

/** The PI gate-budget governor of one chip. */
class ChipGovernor
{
  public:
    ChipGovernor(const ChipGovernorConfig &cfg, size_t cores,
                 double vNominal, double band);

    /**
     * Feed this cycle's rail voltage and per-core draws (one entry
     * per core); updates the PI state and the per-core EWMAs.
     */
    void observe(double vNow, const double *coreAmps);

    /**
     * Arbitrate this cycle's gate requests under the budget from the
     * last observe(). @p gateRequest has one entry per core; @p grant
     * is resized to match, grant[i] nonzero iff core i may gate. When
     * the budget covers every requester all are granted; otherwise the
     * max(budget, 1) requesters first in the order (EWMA descending,
     * index ascending) are. Allocates nothing once @p grant holds one
     * entry per core.
     */
    void arbitrate(const std::vector<uint8_t> &gateRequest,
                   std::vector<uint8_t> &grant);

    /** Gate budget computed by the last observe(). */
    size_t budget() const { return budget_; }

  private:
    ChipGovernorConfig cfg_;
    double vRef_;       ///< absolute setpoint [V]
    double errScale_;   ///< 1 / (band · vNominal)
    double integral_ = 0.0;
    size_t budget_;
    std::vector<double> ewma_;    ///< per-core draw EWMA [A]
    std::vector<size_t> order_;   ///< arbitration scratch: requesters
};

} // namespace vguard::core

#endif // VGUARD_CORE_CHIP_GOVERNOR_HPP
