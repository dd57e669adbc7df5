/**
 * @file
 * Wattch-style architectural power model (paper Section 3.1).
 *
 * Per-structure maximum dynamic powers are scaled for a 3 GHz / 1.0 V
 * design (the paper tuned Wattch with ITRS scaling factors the same
 * way). Each cycle the model maps the core's ActivityVector to watts:
 *
 *   P_unit = Pmax · gatedFrac                     if clock-gated
 *   P_unit = Pmax · (idleFrac + (1-idleFrac)·a·s) otherwise
 *
 * where a is the unit's port/occupancy utilisation, s a data-dependent
 * switching scale (the stressmark maximises it by operand choice), and
 * the conditional-clocking idle fraction follows Wattch's cc3 style.
 * Phantom-fired units run at full activity. Clock-tree power scales
 * with the fraction of ungated load, so actuator gating also sheds
 * clock power — the dominant dI/dt lever.
 *
 * Multi-cycle-op energy is spread over the op's duration because unit
 * utilisation comes from per-cycle *busy* counts, not issue events
 * (the paper's "spreading the energy of multiple cycle operations").
 */

#ifndef VGUARD_POWER_WATTCH_HPP
#define VGUARD_POWER_WATTCH_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "cpu/activity.hpp"
#include "cpu/config.hpp"

namespace vguard::obs {
class Snapshot;  // emitted in obs/stat_bindings.cpp (obs sits above power)
}

namespace vguard::power {

/** Modeled structures. */
enum class Unit : uint8_t {
    Fetch,      ///< I-cache + fetch datapath
    Bpred,
    Dispatch,   ///< decode/rename
    Window,     ///< RUU wakeup/select
    Lsq,
    RegFile,
    IntAlu,
    IntMultDiv,
    FpAlu,
    FpMultDiv,
    Dl1,
    L2,
    ResultBus,
    Clock,
    NumUnits
};

constexpr size_t kNumUnits = static_cast<size_t>(Unit::NumUnits);

/** Human-readable unit name. */
const char *unitName(Unit u);

/** Per-structure parameters. */
struct PowerConfig
{
    /** Max dynamic power per unit [W] at 3 GHz / 1.0 V. */
    std::array<double, kNumUnits> pMax{
        5.5,  // Fetch
        1.8,  // Bpred
        3.5,  // Dispatch
        6.5,  // Window
        2.5,  // Lsq
        4.0,  // RegFile
        7.2,  // IntAlu (8 units)
        2.6,  // IntMultDiv (2 units)
        5.2,  // FpAlu (4 units)
        3.2,  // FpMultDiv (2 units)
        6.0,  // Dl1
        3.5,  // L2
        2.5,  // ResultBus
        7.5,  // Clock tree
    };

    double idleFrac = 0.10;      ///< cc3 ungated-idle fraction
    double idleFracL2 = 0.05;    ///< L2 idles lower
    double gatedFrac = 0.02;     ///< residual power when clock-gated
    double clockFixedFrac = 0.35;///< clock power that never gates
    double vdd = 1.0;            ///< supply [V] (current = P / vdd)

    /** Switching-activity scale: s = sBase + sRange * issueActivity. */
    double sBase = 0.6;
    double sRange = 0.4;
};

/** Per-cycle power/current model. */
class WattchModel
{
  public:
    WattchModel(const PowerConfig &pcfg, const cpu::CpuConfig &ccfg);

    /** Watts consumed in a cycle with the given activity. */
    double power(const cpu::ActivityVector &av);

    /** Amps drawn in a cycle with the given activity. */
    double
    current(const cpu::ActivityVector &av)
    {
        return power(av) / pcfg_.vdd;
    }

    /**
     * Amps for a whole block of cycles: amps[k] = current(avs[k]).
     * Bit-identical to per-cycle calls (same flat-table arithmetic in
     * the same order); exists so the batched open-loop pipeline in
     * core/voltage_sim.cpp converts activity to current in one sweep.
     */
    void currentBlock(const cpu::ActivityVector *avs, size_t n,
                      double *amps);

    /**
     * Lowest reachable power: every actuator-controllable unit gated
     * and no activity anywhere. This is the paper's "minimum power
     * value" used to design thresholds and the target impedance.
     */
    double minPower() const;

    /** Highest reachable power: phantom-fire everything, s = 1. */
    double maxPower() const;

    /**
     * Ungated, zero-activity power — the floor a *program* can reach
     * without actuator help (stalled on memory, everything idle but
     * clocked).
     */
    double idlePower() const;

    double minCurrent() const { return minPower() / pcfg_.vdd; }
    double maxCurrent() const { return maxPower() / pcfg_.vdd; }
    double idleCurrent() const { return idlePower() / pcfg_.vdd; }

    /** Per-unit breakdown of the last power() call [W]. */
    const std::array<double, kNumUnits> &
    lastBreakdown() const
    {
        return last_;
    }

    /**
     * Accumulated watt-cycles per unit (sum of every power() call's
     * breakdown); multiply by the clock period for joules.
     */
    const std::array<double, kNumUnits> &
    wattCycles() const
    {
        return wattCycles_;
    }

    /**
     * Append per-unit energy (and total) to @p out as
     * `<prefix>.<unit>.energy_j` gauges (MergeRule::Sum).
     * @p dtSeconds converts accumulated watt-cycles to joules.
     */
    void appendStats(obs::Snapshot &out, const std::string &prefix,
                     double dtSeconds) const;

  private:
    PowerConfig pcfg_;
    cpu::CpuConfig ccfg_;

    // Flat SoA tables precomputed at construction so the per-cycle
    // path is a branch-light sweep over parallel arrays:
    //  - idleFrac_[u]: the cc3 idle fraction each unit uses;
    //  - clockPower_[m]: full clock-tree power for every combination
    //    of live/gated unit groups (bit 0 fetch, bit 1 FUs, bit 2 DL1),
    //    computed with the exact summation order of the old per-cycle
    //    loop so results stay bit-identical.
    std::array<double, kNumUnits> idleFrac_{};
    std::array<double, 8> clockPower_{};

    std::array<double, kNumUnits> last_{};
    std::array<double, kNumUnits> wattCycles_{};
};

} // namespace vguard::power

#endif // VGUARD_POWER_WATTCH_HPP
