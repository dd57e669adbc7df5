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
 * Two fast paths exist for runs without a controller (open loop, no
 * actuation feedback), both bit-identical to the per-cycle loop:
 *
 *  - run() automatically batches open-loop runs: activity vectors are
 *    gathered in blocks, converted to amps by WattchModel::currentBlock
 *    and to volts by PdnSim::stepMany, then the per-cycle bookkeeping
 *    sweeps the block. Optionally captures the current/activity trace
 *    for the cache (core/trace_cache.hpp).
 *  - runReplay() skips the core and power model entirely, driving the
 *    PDN + emergency bookkeeping from a captured trace; front-end
 *    stats are spliced in from the capture.
 */

#ifndef VGUARD_CORE_VOLTAGE_SIM_HPP
#define VGUARD_CORE_VOLTAGE_SIM_HPP

#include <optional>

#include "core/controller.hpp"
#include "core/trace_cache.hpp"
#include "cpu/core.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "pdn/pdn_sim.hpp"
#include "power/wattch.hpp"
#include "util/stats.hpp"

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

    /** Enable sampled wall-clock phase profiling (see obs/profile). */
    bool profiling = false;
    /** Activity-fingerprint window per emergency event [cycles]. */
    size_t fingerprintWindow = 32;
    /** Emergency event-log capacity per run. */
    size_t maxEvents = 4096;
};

/** Results of a run. */
struct VoltageSimResult
{
    uint64_t cycles = 0;
    uint64_t committed = 0;
    double ipc = 0.0;
    double energyJ = 0.0;
    double avgPowerW = 0.0;
    double minV = 0.0;
    double maxV = 0.0;
    uint64_t lowEmergencyCycles = 0;
    uint64_t highEmergencyCycles = 0;
    uint64_t gatedCycles = 0;
    uint64_t phantomCycles = 0;
    uint64_t lowTriggers = 0;
    uint64_t highTriggers = 0;
    Histogram voltageHist{0.90, 1.10, 80};

    /** Per-run hierarchical stats (interval diff of the registry). */
    obs::Snapshot stats;
    /** Emergency episodes of this run, each with its fingerprint. */
    obs::EventLog events;
    /** Sampled wall-clock phases (empty unless profiling enabled);
        nondeterministic — never part of deterministic artifacts. */
    obs::ProfileData profile;

    uint64_t
    emergencyCycles() const
    {
        return lowEmergencyCycles + highEmergencyCycles;
    }

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

    // The stats registry binds callbacks to component addresses, so
    // the sim must stay put.
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

    bool halted() const { return core_.halted(); }
    const cpu::OoOCore &core() const { return core_; }
    /** Mutable core access for external controllers (e.g. PID). */
    cpu::OoOCore &core() { return core_; }
    const power::WattchModel &powerModel() const { return power_; }
    const VoltageSimConfig &config() const { return cfg_; }

    /** The hierarchical stats registry of this sim's components. */
    const obs::Registry &registry() const { return registry_; }
    /** Current cumulative values of every registered stat. */
    obs::Snapshot statsSnapshot() const { return registry_.snapshot(); }

  private:
    /** Per-run scalar accumulators shared by the three loop bodies. */
    struct RunAccum
    {
        double energy = 0.0;
        uint64_t cycles = 0;
        double vLoBound = 0.0;
        double vHiBound = 0.0;
        double dt = 0.0;
    };

    /** The original per-cycle loop (controller in the loop). */
    void runClosedLoop(uint64_t maxCycles, uint64_t maxInsts,
                       VoltageSimResult &res, RunAccum &acc);
    /** Batched gather → currentBlock → stepMany open-loop pipeline. */
    void runOpenLoop(uint64_t maxCycles, uint64_t maxInsts,
                     VoltageSimResult &res, RunAccum &acc,
                     CapturedTrace *capture);
    /** Per-cycle bookkeeping shared by every loop body. */
    void accountCycle(uint64_t cycle, double amps, double volts,
                      const std::array<uint32_t, obs::kNumFpChannels>
                          &counts,
                      const obs::EmergencyTracker::ControlState &ctrl,
                      VoltageSimResult &res, RunAccum &acc);

    VoltageSimConfig cfg_;
    cpu::OoOCore core_;
    power::WattchModel power_;
    pdn::PdnSim pdn_;
    std::optional<ThresholdController> controller_;
    uint64_t cycle_ = 0;
    double vNominal_;

    // Observability: registry over all components, per-run emergency
    // episode tracker, sampled phase profiler.
    obs::Registry registry_;
    obs::EmergencyTracker tracker_;
    obs::Profiler profiler_;
    bool profiling_ = false;
    /** This cycle's activity / sampled-profiler handle (set by
        step(), consumed by run()'s event tracking). */
    const cpu::ActivityVector *lastAv_ = nullptr;
    obs::Profiler *lastProf_ = nullptr;

    /** Block scratch for the batched pipelines (sized once per run). */
    std::vector<cpu::ActivityVector> avBuf_;
    std::vector<double> ampsBuf_;
    std::vector<double> voltsBuf_;

    // Cumulative (whole-sim-lifetime) counters bound into registry_;
    // run() reports per-run values via snapshot diffs.
    uint64_t emLow_ = 0;
    uint64_t emHigh_ = 0;
    double vMinSeen_;
    double vMaxSeen_;
};

} // namespace vguard::core

#endif // VGUARD_CORE_VOLTAGE_SIM_HPP
