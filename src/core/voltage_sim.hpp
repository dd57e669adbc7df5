/**
 * @file
 * The coupled voltage simulation (paper Fig. 7): cycle core → Wattch
 * power → current → PDN → die voltage → threshold controller → gating,
 * closed every CPU cycle.
 *
 * The PDN is stepped in state space (pdn::PdnSim). The paper's
 * convolution-with-impulse-response pipeline computes the same
 * voltages; tests keep pdn::Convolver as the oracle for that identity.
 *
 * Three fast paths skip work the per-cycle loop would do, each
 * bit-identical to it:
 *
 *  - run() automatically batches open-loop runs: activity vectors are
 *    gathered in blocks, converted to amps by WattchModel::currentBlock
 *    and to volts by PdnSim::stepMany, then the accountant sweeps the
 *    block. Optionally captures the current/activity trace for the
 *    cache (core/trace_cache.hpp), one block at a time.
 *  - runReplay() skips the core and power model entirely, driving the
 *    PDN + accountant from a captured trace; front-end stats are
 *    spliced in from the capture.
 *  - runSensedReplay() does the same for a closed loop while its
 *    controller stays passive: each replayed voltage also passes
 *    through the real sensor. On a Normal level the actuator only
 *    clears gates that were never set, so until the first reading
 *    that is not Normal the closed loop *is* the open-loop run; at
 *    that reading the replay gives up and the caller runs the full
 *    loop (runWorkload in experiments.cpp).
 *
 * All loops share one accountant (energy, core::RailTally and the
 * emergency-episode tracker) and one begin/finish per run.
 *
 * A sim runs once: run(), runReplay() and runSensedReplay() refuse a
 * sim that has begun a run or stepped a cycle, so every component
 * counter starts the run at zero and the run's stats are one snapshot
 * taken at its end.
 *
 * A sim built while the obs::Tracer is on also times its phases into
 * the tracer's profile: 1 cycle in 64 of the per-cycle loop, 1 block
 * in 64 of the batched paths (obs/tracing.hpp).
 */

#ifndef VGUARD_CORE_VOLTAGE_SIM_HPP
#define VGUARD_CORE_VOLTAGE_SIM_HPP

#include <optional>

#include "core/controller.hpp"
#include "core/rail_tally.hpp"
#include "core/trace_cache.hpp"
#include "cpu/core.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "pdn/pdn_sim.hpp"
#include "power/wattch.hpp"

namespace vguard::core {

/** Configuration of one coupled simulation. */
struct VoltageSimConfig
{
    cpu::CpuConfig cpu;
    power::PowerConfig power;
    pdn::PackageParams package;  ///< from PackageModel::design(...)
    double band = 0.05;          ///< emergency band (fraction of vNom)

    /** Controller; disengaged when unset (characterisation runs). */
    std::optional<SensorConfig> sensor;
    ActuatorKind actuator = ActuatorKind::Ideal;
    /** Distinct phantom-fire unit set (defaults to `actuator`). */
    std::optional<ActuatorKind> phantomActuator;

    /** Voltage histogram range/bins (Fig. 10). */
    double histLo = 0.90;
    double histHi = 1.10;
    size_t histBins = 80;

    /** An empty tally of this config's rail: its band and histogram. */
    RailTally
    railTally() const
    {
        return RailTally(package.vNominal, band, histLo, histHi, histBins);
    }
};

/** Results of a run: the rail tally plus the core-side outcome. */
struct VoltageSimResult : RailTally
{
    using RailTally::RailTally;

    uint64_t committed = 0;
    double ipc = 0.0;
    double energyJ = 0.0;
    double avgPowerW = 0.0;
    uint64_t gatedCycles = 0;
    uint64_t phantomCycles = 0;
    uint64_t lowTriggers = 0;
    uint64_t highTriggers = 0;

    /** The run's hierarchical stats: one snapshot taken at its end. */
    obs::Snapshot stats;
    /** Emergency episodes of this run, each with its fingerprint. */
    obs::EventLog events;

    double
    emergencyFrequency() const
    {
        return cycles ? static_cast<double>(emergencyCycles()) / cycles
                      : 0.0;
    }
};

/** One cycle of trace output (for Fig. 11-style plots). */
struct TraceSample
{
    uint64_t cycle = 0;
    double amps = 0.0;
    double volts = 0.0;
    bool gated = false;
    bool phantom = false;
};

/** The coupled simulator. */
class VoltageSim
{
  public:
    VoltageSim(const VoltageSimConfig &cfg, isa::Program program);
    /** Adds every cycle it ran to the tracer's profile when sampling. */
    ~VoltageSim();

    // A copy would add the same cycles to the profile twice.
    VoltageSim(const VoltageSim &) = delete;
    VoltageSim &operator=(const VoltageSim &) = delete;

    /**
     * Advance one cycle; returns the sample (current, voltage,
     * controller state).
     */
    TraceSample step();

    /** Cycles per block in the batched open-loop/replay pipelines. */
    static constexpr size_t kBlockCycles = 256;

    /**
     * Run until @p maxCycles cycles or @p maxInsts committed
     * instructions (whichever first) or program halt.
     *
     * When @p capture is non-null the run also records the per-cycle
     * current waveform + activity fingerprint stream into it (legal
     * only without a controller — capture of a closed-loop run would
     * bake one package's actuation into the trace).
     */
    VoltageSimResult run(uint64_t maxCycles, uint64_t maxInsts = ~0ull,
                         CapturedTrace *capture = nullptr);

    /**
     * Replay a captured open-loop trace against this sim's PDN,
     * skipping the core and power model. Requires a controller-free
     * config whose (cpu, power) match the capture —
     * the result (including stats and emergency events) is
     * byte-identical to a fresh full-core run().
     */
    VoltageSimResult runReplay(const CapturedTrace &trace,
                               size_t blockCycles = kBlockCycles);

    /**
     * Replay a captured open-loop trace through this fresh
     * closed-loop sim's PDN, its real ThresholdController (delay line,
     * noise stream and counters) and the accountant, skipping the core
     * and power model. The trace must come from the open-loop run of
     * the same (program, cpu, power, limits). Returns the result — the
     * full closed loop's, byte for byte — if the sensor read Normal on
     * every cycle, and nullopt at the first cycle it did not; the sim
     * is then spent and the caller runs the full loop in a fresh one.
     */
    std::optional<VoltageSimResult>
    runSensedReplay(const CapturedTrace &trace);

    bool halted() const { return core_.halted(); }
    const cpu::OoOCore &core() const { return core_; }
    /** Mutable core access for external controllers (e.g. PID). */
    cpu::OoOCore &core() { return core_; }
    const VoltageSimConfig &config() const { return cfg_; }

  private:
    /** Every component's counters now, plus @p rail's and the event
        log's: the stats of a run that ends here. */
    obs::Snapshot snapshotStats(const RailTally &rail) const;
    /** Open the sim's one run (fatal on a second, or after step()):
        an empty result. */
    VoltageSimResult beginRun();
    /** Close the run: derive rates and take its stats and events. */
    void finishRun(VoltageSimResult &res, uint64_t committed);
    /** The original per-cycle loop (controller in the loop). */
    void runClosedLoop(uint64_t maxCycles, uint64_t maxInsts,
                       VoltageSimResult &res);
    /** Batched gather → currentBlock → stepMany open-loop pipeline. */
    void runOpenLoop(uint64_t maxCycles, uint64_t maxInsts,
                     VoltageSimResult &res, CapturedTrace *capture);
    /** Both replays: nullopt when the sensor left Normal. */
    std::optional<VoltageSimResult> replay(const CapturedTrace &trace,
                                           size_t blockCycles);
    /**
     * The replay's block loop: stepMany over the captured amps, each
     * cycle through the sensor when there is a controller. Returns the
     * cycles accounted — short of trace.cycles() at the first cycle
     * whose level is not Normal.
     */
    size_t replayBlocks(const CapturedTrace &trace, size_t blockCycles,
                        VoltageSimResult &res);
    /**
     * The accounting every loop shares: energy, rail tally and episode
     * tracker for @p n cycles starting at cycle @p first, all under
     * control state @p ctrl.
     */
    void account(uint64_t first, const double *amps, const double *volts,
                 const obs::ActivityRow *rows, size_t n,
                 const obs::EmergencyTracker::ControlState &ctrl,
                 VoltageSimResult &res);

    VoltageSimConfig cfg_;
    cpu::OoOCore core_;
    power::WattchModel power_;
    pdn::PdnSim pdn_;
    std::optional<ThresholdController> controller_;
    uint64_t cycle_ = 0;
    /** A run has begun; with cycle_ == 0 this keeps a sim to one run
        (an aborted sensed replay moves the PDN, not cycle_). */
    bool ran_ = false;

    /** Per-run emergency episode tracker. */
    obs::EmergencyTracker tracker_;
    /** The tracer was on at construction. Read once, so with the
        tracer off no cycle reads it or calls into it. */
    bool sampling_ = false;
    /** Cycles inside a timed cycle or block. */
    uint64_t sampledCycles_ = 0;
    /** This cycle's activity and whether it is timed (set by step(),
        consumed by run()'s event tracking). */
    const cpu::ActivityVector *lastAv_ = nullptr;
    bool timed_ = false;

    /** Block scratch for the batched pipelines (sized once per run). */
    std::vector<cpu::ActivityVector> avBuf_;
    std::vector<double> ampsBuf_;
    std::vector<double> voltsBuf_;
    std::vector<obs::ActivityRow> rowBuf_;
};

} // namespace vguard::core

#endif // VGUARD_CORE_VOLTAGE_SIM_HPP
