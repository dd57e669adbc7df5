#include "core/experiments.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>

#include "core/trace_cache.hpp"
#include "obs/tracing.hpp"
#include "pdn/package_model.hpp"
#include "power/wattch.hpp"
#include "workloads/kernels.hpp"
#include "util/logging.hpp"

namespace vguard::core {

Machine
referenceMachine()
{
    return Machine{cpu::CpuConfig{}, power::PowerConfig{}};
}

const CurrentRange &
referenceCurrentRange()
{
    // C++11 magic-static: concurrent first calls block until the one
    // initialising thread finishes — safe for campaign workers.
    static const CurrentRange cached = [] {
        const Machine m = referenceMachine();
        // One model serves both the analytic extremes (scratch-copy
        // const queries) and the virus run below.
        power::WattchModel model(m.power, m.cpu);
        CurrentRange r;
        r.gatedMin = model.minCurrent();
        r.phantomMax = model.maxCurrent();
        r.progMin = model.idleCurrent();

        // Measure the program-reachable ceiling with a power virus
        // (peak over the steady, I-cache-warm half of the run). The
        // measurement doubles as the trace cache's first entry: the
        // loop below walks the same (program, config, limits) stream
        // an open-loop VoltageSim::run(total) would, so the captured
        // waveform replays byte-identically. Routed through
        // fetchOrCapture so a cold process with a warm persistent
        // store recomputes the peak from the mmapped amps stream
        // instead of re-running the virus — the doubles are stored
        // exactly, so the max over the steady half is bit-identical
        // and a warm restart performs zero captures.
        const isa::Program virus = workloads::powerVirus();
        const uint64_t total = 30000;
        double measuredPeak = -1.0;
        const auto captureFn = [&]() -> CapturedTrace {
            cpu::OoOCore core(m.cpu, virus);
            obs::Registry reg;
            core.registerStats(reg, "cpu");
            model.registerStats(reg, "power", 1.0 / m.cpu.clockHz);
            const obs::Snapshot before = reg.snapshot();
            CapturedTrace trace;
            trace.amps.reserve(total);
            trace.activity.reserve(total);
            double peak = 0.0;
            while (core.now() < total && !core.halted()) {
                const cpu::ActivityVector &av = core.cycle();
                const double amps = model.current(av);
                if (core.now() > total / 2)
                    peak = std::max(peak, amps);
                trace.amps.push_back(amps);
                trace.activity.push_back(obs::fpChannelCounts(av));
            }
            trace.committed = core.stats().committed;
            trace.halted = core.halted();
            trace.frontEnd =
                frontEndSubset(reg.snapshot().diff(before));
            measuredPeak = peak;
            return trace;
        };
        const CapturedTrace *t = TraceCache::instance().fetchOrCapture(
            traceKey(virus, m.cpu, m.power, total, ~0ull), captureFn);
        if (!t && measuredPeak < 0.0) {
            // Cache disabled (or the entry was dropped without the
            // capture running here): measure directly, uncached.
            const CapturedTrace local = captureFn();
            (void)local;
        }
        double peak = measuredPeak;
        if (peak < 0.0) {
            // Served from cache/store without running the virus:
            // replay the identical max over the stored steady half.
            peak = 0.0;
            const double *amps = t->ampsData();
            for (size_t j = total / 2; j < t->cycles(); ++j)
                peak = std::max(peak, amps[j]);
        }
        r.progMax = peak;
        if (r.progMax <= r.progMin)
            panic("referenceCurrentRange: power virus failed (%.1f A)",
                  r.progMax);
        informDebug("current range: prog [%.1f, %.1f] A, actuator "
                    "[%.1f, %.1f] A",
                    r.progMin, r.progMax, r.gatedMin, r.phantomMax);
        return r;
    }();
    return cached;
}

const pdn::TargetImpedanceResult &
referenceTarget()
{
    // Magic-static: initialisation is thread-safe (see above).
    static const pdn::TargetImpedanceResult cached = [] {
        const Machine m = referenceMachine();
        const CurrentRange &range = referenceCurrentRange();
        pdn::TargetImpedanceSpec spec;
        spec.clockHz = m.cpu.clockHz;
        spec.vNominal = m.power.vdd;
        spec.iMin = range.progMin;
        spec.iMax = range.progMax;
        spec.iTrim = range.gatedMin;
        auto res = pdn::calibrateTargetImpedance(spec);
        informDebug("referenceTarget: zTarget=%.4g mOhm (dip %.4f V, "
                    "peak %.4f V)",
                    res.zTargetOhms * 1e3, res.worstDipV,
                    res.worstPeakV);
        return res;
    }();
    return cached;
}

pdn::PackageParams
referencePackage(double impedanceScale)
{
    const Machine m = referenceMachine();
    return pdn::PackageModel::design(
               50e6, referenceTarget().zTargetOhms * impedanceScale,
               0.5e-3, 0.25e-3, m.cpu.clockHz, m.power.vdd)
        .params();
}

namespace {

/// Total solver invocations behind referenceThresholds() — test
/// instrumentation for the single-solve-per-key guarantee.
std::atomic<uint64_t> thresholdSolves{0};

} // namespace

uint64_t
thresholdSolveCount()
{
    return thresholdSolves.load(std::memory_order_relaxed);
}

const Thresholds &
referenceThresholds(double impedanceScale, unsigned delayCycles,
                    double sensorError)
{
    // Campaign workers hit this cache concurrently. The map itself is
    // guarded by a mutex held only for lookup/insert; the expensive
    // solve runs outside that lock under a per-key once_flag, so
    // distinct keys solve in parallel while concurrent first-calls on
    // the same key collapse to a single solver invocation. Entries
    // are heap-allocated so returned references stay stable across
    // rebalancing inserts.
    using Key = std::tuple<long, unsigned, long>;
    struct Entry
    {
        std::once_flag once;
        Thresholds value;
    };
    static std::mutex cacheMutex;
    static std::map<Key, std::unique_ptr<Entry>> cache;

    const Key key{std::lround(impedanceScale * 1000.0), delayCycles,
                  std::lround(sensorError * 1e6)};
    Entry *entry;
    {
        std::lock_guard<std::mutex> lock(cacheMutex);
        auto &slot = cache[key];
        if (!slot)
            slot = std::make_unique<Entry>();
        entry = slot.get();
    }
    std::call_once(entry->once, [&] {
        // Detached: one solve per key, fired by whichever worker asks
        // first — a canonical root (solver.probe spans nest under it).
        obs::TraceSpan span("solver.solve", obs::TraceClass::Det, true);
        span.arg("scale_milli",
                 uint64_t{static_cast<uint64_t>(
                     std::lround(impedanceScale * 1000.0))})
            .arg("delay", uint64_t{delayCycles})
            .arg("error_ppm",
                 uint64_t{static_cast<uint64_t>(
                     std::lround(sensorError * 1e6))});
        const Machine m = referenceMachine();
        const CurrentRange &range = referenceCurrentRange();
        ThresholdSpec spec;
        spec.clockHz = m.cpu.clockHz;
        spec.vNominal = m.power.vdd;
        spec.zPeakOhms = referenceTarget().zTargetOhms * impedanceScale;
        spec.iMin = range.progMin;
        spec.iMax = range.progMax;
        spec.iGate = range.gatedMin;
        spec.iPhantom = range.phantomMax;
        spec.iTrim = range.gatedMin;
        spec.delayCycles = delayCycles;
        spec.sensorError = sensorError;
        spec.guardBandV = 0.0005;
        entry->value = solveThresholds(spec);
        thresholdSolves.fetch_add(1, std::memory_order_relaxed);
    });
    return entry->value;
}

VoltageSimConfig
makeSimConfig(const RunSpec &spec)
{
    // referenceThresholds keys on lround() of the scale and the error,
    // which NaN or an out-of-range value would feed garbage before any
    // sensor exists to refuse it.
    VGUARD_CHECK(std::isfinite(spec.impedanceScale) &&
                 spec.impedanceScale > 0.0 &&
                 spec.impedanceScale <= 1e6);
    VGUARD_CHECK(std::isfinite(spec.sensorError) &&
                 spec.sensorError >= 0.0 && spec.sensorError <= 1.0);
    VGUARD_CHECK(spec.delayCycles <= kMaxSensorDelayCycles);
    const Machine m = referenceMachine();
    VoltageSimConfig cfg;
    cfg.cpu = m.cpu;
    cfg.power = m.power;
    cfg.package = referencePackage(spec.impedanceScale);
    cfg.actuator = spec.actuator;
    if (spec.controllerEnabled) {
        const Thresholds &th = referenceThresholds(
            spec.impedanceScale, spec.delayCycles, spec.sensorError);
        SensorConfig sc;
        sc.vLow = th.vLow;
        sc.vHigh = th.vHigh;
        sc.delayCycles = spec.delayCycles;
        sc.noiseMagnitude = spec.sensorError;
        sc.seed = spec.noiseSeed;
        cfg.sensor = sc;
    }
    return cfg;
}

std::string
openLoopKey(const isa::Program &program, const RunSpec &spec)
{
    // makeSimConfig puts exactly these cpu/power configs in every
    // VoltageSimConfig, so this is the key of the run it configures.
    const Machine m = referenceMachine();
    return traceKey(program, m.cpu, m.power, spec.maxCycles,
                    spec.maxInsts);
}

VoltageSimResult
runWorkload(const isa::Program &program, const RunSpec &spec)
{
    const VoltageSimConfig cfg = makeSimConfig(spec);
    TraceCache &tc = TraceCache::instance();
    if (!tc.enabled()) {
        VoltageSim sim(cfg, program);
        return sim.run(spec.maxCycles, spec.maxInsts);
    }
    const std::string key = openLoopKey(program, spec);

    // Closed loop: while the sensor reads Normal the run is the
    // open-loop run of the same key, so replay that trace through the
    // real sensor if an open-loop leg already left it in the cache
    // (compareControlled's baseline leg has just done so). The lookup
    // is hit-only: a closed loop never captures to speculate. At the
    // first reading that is not Normal the actuator needs the real
    // core, so the full coupled loop runs from cycle 0 instead.
    if (cfg.sensor) {
        if (const CapturedTrace *trace = tc.find(key)) {
            VoltageSim sim(cfg, program);
            if (std::optional<VoltageSimResult> res =
                    sim.runSensedReplay(*trace))
                return std::move(*res);
        }
        VoltageSim sim(cfg, program);
        return sim.run(spec.maxCycles, spec.maxInsts);
    }

    // Open loop: first call per key runs the full sim once (capturing
    // the trace and returning its own result); every later call —
    // other packages in a sweep, other noise seeds, baseline legs —
    // replays the trace against its own PDN, byte-identically.
    std::optional<VoltageSimResult> mine;
    const CapturedTrace *trace = tc.fetchOrCapture(key, [&] {
        CapturedTrace t;
        VoltageSim sim(cfg, program);
        mine = sim.run(spec.maxCycles, spec.maxInsts, &t);
        return t;
    });
    if (mine)
        return std::move(*mine);
    if (!trace) {
        // Cache over budget: nothing retained to replay from.
        VoltageSim sim(cfg, program);
        return sim.run(spec.maxCycles, spec.maxInsts);
    }
    VoltageSim sim(cfg, program);
    return sim.runReplay(*trace);
}

const CapturedTrace &
fetchTrace(const isa::Program &program, const RunSpec &spec,
           CapturedTrace &fallback)
{
    const VoltageSimConfig cfg = makeSimConfig(spec);
    VGUARD_CHECK(!cfg.sensor);

    auto capture = [&]() -> CapturedTrace {
        CapturedTrace t;
        VoltageSim sim(cfg, program);
        sim.run(spec.maxCycles, spec.maxInsts, &t);
        return t;
    };

    TraceCache &tc = TraceCache::instance();
    if (!tc.enabled()) {
        fallback = capture();
        return fallback;
    }
    bool captured = false;
    const CapturedTrace *trace =
        tc.fetchOrCapture(openLoopKey(program, spec), [&] {
            CapturedTrace t = capture();
            fallback = t;
            captured = true;
            return t;
        });
    if (captured)
        return fallback;
    if (!trace) {
        // Cache over budget for a non-capturing caller.
        fallback = capture();
        return fallback;
    }
    return *trace;
}

namespace {

/**
 * Instructions the open-loop run of (program, spec) commits. Only the
 * count is read, so a cached trace answers without a PDN replay; a
 * miss captures the trace exactly as runWorkload would.
 */
uint64_t
openLoopCommitted(const isa::Program &program, const RunSpec &spec)
{
    const VoltageSimConfig cfg = makeSimConfig(spec);
    std::optional<uint64_t> mine;
    const CapturedTrace *trace = TraceCache::instance().fetchOrCapture(
        openLoopKey(program, spec), [&] {
            CapturedTrace t;
            VoltageSim sim(cfg, program);
            mine = sim.run(spec.maxCycles, spec.maxInsts, &t).committed;
            return t;
        });
    if (trace)
        return trace->committed;
    if (mine)
        return *mine;
    // Cache off, or over budget for a non-capturing caller.
    VoltageSim sim(cfg, program);
    return sim.run(spec.maxCycles, spec.maxInsts).committed;
}

} // namespace

Comparison
compareControlled(const isa::Program &program, const RunSpec &spec)
{
    Comparison cmp;

    // Probe how much work fits in the budget, then measure both runs
    // to exactly that instruction count so neither includes a partial
    // stall tail (which would bias the comparison by up to a full
    // memory latency).
    RunSpec probe = spec;
    probe.controllerEnabled = false;
    const uint64_t work = openLoopCommitted(program, probe);

    RunSpec base = spec;
    base.controllerEnabled = false;
    base.maxInsts = work;
    base.maxCycles = spec.maxCycles * 8;
    cmp.baseline = runWorkload(program, base);

    RunSpec ctl = spec;
    ctl.controllerEnabled = true;
    ctl.maxInsts = work;
    // Give the controlled run headroom to finish the same work.
    ctl.maxCycles = spec.maxCycles * 8;
    cmp.controlled = runWorkload(program, ctl);

    if (cmp.baseline.cycles > 0 && cmp.baseline.energyJ > 0.0) {
        cmp.perfLossPct = 100.0 *
                          (static_cast<double>(cmp.controlled.cycles) -
                           static_cast<double>(cmp.baseline.cycles)) /
                          static_cast<double>(cmp.baseline.cycles);
        cmp.energyIncreasePct =
            100.0 * (cmp.controlled.energyJ - cmp.baseline.energyJ) /
            cmp.baseline.energyJ;
    }
    return cmp;
}

uint64_t
cycleBudget(uint64_t fallback)
{
    // Read on the main thread while parsing CLI options, before the
    // campaign pool spawns (test_core.cpp toggles it sequentially).
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv("VGUARD_CYCLES");
    if (!env || !*env)
        return fallback;
    uint64_t cycles = 0;
    if (!parseUnsignedDecimal(env, 19, cycles) || cycles == 0) {
        warn("VGUARD_CYCLES: expected a positive cycle count, got '%s'; "
             "using default %llu",
             env, static_cast<unsigned long long>(fallback));
        return fallback;
    }
    return cycles;
}

} // namespace vguard::core
