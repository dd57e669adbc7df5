/**
 * @file
 * Shared experiment harness used by the benchmark binaries and the
 * examples: the reference machine (paper Table 1 + power model), the
 * calibrated target impedance, cached threshold solutions, and
 * controlled-vs-baseline comparison runs.
 */

#ifndef VGUARD_CORE_EXPERIMENTS_HPP
#define VGUARD_CORE_EXPERIMENTS_HPP

#include <cstdint>
#include <string>

#include "core/threshold_solver.hpp"
#include "core/voltage_sim.hpp"
#include "pdn/target_impedance.hpp"
#include "workloads/stressmark.hpp"

namespace vguard::core {

/** The reference machine of the paper. */
struct Machine
{
    cpu::CpuConfig cpu;
    power::PowerConfig power;
};

/** Table-1 CPU + default Wattch model. */
Machine referenceMachine();

/**
 * Current envelope of the reference machine. The adversary (program)
 * range is what running code can demand — the floor is the ungated
 * idle current and the ceiling is *measured* by simulating a power
 * virus — while the actuator range extends it in both directions
 * (full clock gating below, phantom firing above).
 */
struct CurrentRange
{
    double progMin = 0.0;     ///< ungated idle current [A]
    double progMax = 0.0;     ///< measured power-virus peak [A]
    double gatedMin = 0.0;    ///< everything clock-gated [A]
    double phantomMax = 0.0;  ///< everything phantom-fired [A]
};

/**
 * Measured once and cached. The program ceiling is the peak of the
 * power virus's open-loop trace, which the trace cache serves like any
 * other (VoltageSim::run captures it), so a warm persistent store
 * answers without running the virus. The measuring call records a
 * detached Det span `reference.current_range`.
 */
const CurrentRange &referenceCurrentRange();

/**
 * Target impedance calibrated for the reference machine's current
 * range (cached after the first call, which records a detached Det
 * span `reference.target`).
 */
const pdn::TargetImpedanceResult &referenceTarget();

/** Reference package at a multiple of the target impedance. */
pdn::PackageParams referencePackage(double impedanceScale);

/**
 * The reference stressmark: the Table-1 CPU's loop calibrated to the
 * reference package's resonant period (calibrated once and cached).
 * The calibrating call records a detached Det span
 * `stressmark.calibrate` (args `period`, `grid_points`).
 */
const workloads::StressmarkCalibration &referenceStressmark();

/**
 * The solver spec of the reference machine at a given impedance
 * multiple, sensor delay and sensor error: the measured current
 * envelope against the package referencePackage(@p impedanceScale)
 * designs (same f₀, R_dc, R_damp, peak impedance, clock and nominal
 * voltage), with a 0.5 mV guard band.
 */
ThresholdSpec referenceThresholdSpec(double impedanceScale,
                                     unsigned delayCycles,
                                     double sensorError = 0.0);

/**
 * Thresholds for the reference machine at a given impedance multiple,
 * sensor delay and sensor error: solveThresholds of
 * referenceThresholdSpec. Cached and thread-safe: concurrent first
 * calls on the same key collapse to a single solver invocation;
 * distinct keys solve in parallel.
 */
const Thresholds &referenceThresholds(double impedanceScale,
                                      unsigned delayCycles,
                                      double sensorError = 0.0);

/**
 * Number of actual threshold-solver invocations made on behalf of
 * referenceThresholds() so far (test instrumentation for the
 * one-solve-per-key guarantee).
 */
uint64_t thresholdSolveCount();

/** One experiment configuration. */
struct RunSpec
{
    double impedanceScale = 2.0;  ///< multiple of target impedance
    unsigned delayCycles = 1;     ///< sensor/controller delay
    double sensorError = 0.0;     ///< bounded reading error [V]
    ActuatorKind actuator = ActuatorKind::Ideal;
    bool controllerEnabled = true;
    uint64_t maxCycles = 200000;
    uint64_t maxInsts = ~0ull;
    /**
     * Sensor-noise stream seed. Standalone runs use this default;
     * campaign runs get a per-run seed derived as
     * deriveRunSeed(campaignSeed, runIndex) so no two runs of a sweep
     * share a noise stream (see campaign.hpp and EXPERIMENTS.md).
     */
    uint64_t noiseSeed = 0x5e11507;
};

/**
 * Build the full VoltageSimConfig for a RunSpec: the boundary where a
 * RunSpec enters. Panics on a non-finite or out-of-range
 * impedanceScale (0, 1e6] or sensorError [0, 1 V], or a delay past
 * kMaxSensorDelayCycles.
 */
VoltageSimConfig makeSimConfig(const RunSpec &spec);

/**
 * Trace-cache key of the open-loop run of (program, spec) on the
 * reference machine: the trace an open-loop run captures or replays,
 * a compare job's probe leg captures, and a closed-loop run of the
 * same spec replays while its sensor reads Normal. Reads only the
 * program and the run limits, so it never solves thresholds.
 */
std::string openLoopKey(const isa::Program &program, const RunSpec &spec);

/** Run a program under a RunSpec. */
VoltageSimResult runWorkload(const isa::Program &program,
                             const RunSpec &spec);

/**
 * Captured open-loop current trace for (program, spec) — the feed for
 * multi-package replay sweeps (core/replay_sweep.hpp). The trace
 * cache's fetchOrCapture: the cached trace when there is one (one
 * capture amortises across the whole sweep, and across runWorkload
 * calls with the same key), else one held in @p fallback, which must
 * outlive the returned reference. @p spec must be open-loop
 * (controllerEnabled == false).
 */
const CapturedTrace &fetchTrace(const isa::Program &program,
                                const RunSpec &spec,
                                CapturedTrace &fallback);

/** Controlled run vs uncontrolled baseline over the same work. */
struct Comparison
{
    VoltageSimResult baseline;
    VoltageSimResult controlled;
    double perfLossPct = 0.0;
    double energyIncreasePct = 0.0;
};

/**
 * Run @p program uncontrolled for spec.maxCycles, then controlled
 * until the same instruction count, and compare.
 */
Comparison compareControlled(const isa::Program &program,
                             const RunSpec &spec);

/**
 * Environment-variable override for cycle budgets (VGUARD_CYCLES): a
 * positive decimal count of at most 19 digits. Unset or empty gives
 * @p fallback; any other text warns and gives @p fallback.
 */
uint64_t cycleBudget(uint64_t fallback);

} // namespace vguard::core

#endif // VGUARD_CORE_EXPERIMENTS_HPP
