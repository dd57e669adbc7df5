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
        // Detached: set-up runs inside whichever span first asks.
        obs::TraceSpan span("reference.current_range",
                            obs::TraceClass::Det, true);
        const Machine m = referenceMachine();
        const power::WattchModel model(m.power, m.cpu);
        CurrentRange r;
        r.gatedMin = model.minCurrent();
        r.phantomMax = model.maxCurrent();
        r.progMin = model.idleCurrent();

        // Measure the program-reachable ceiling with a power virus: the
        // peak over the steady, I-cache-warm half of its open-loop
        // trace. Open-loop amps never see the package, so the default
        // one serves, and the trace is an ordinary cache entry: a warm
        // persistent store serves it without running the virus.
        const isa::Program virus = workloads::powerVirus();
        const uint64_t total = 30000;
        VoltageSimConfig cfg;
        cfg.cpu = m.cpu;
        cfg.power = m.power;
        CapturedTrace own;
        const CapturedTrace &t = TraceCache::instance().fetchOrCapture(
            traceKey(virus, m.cpu, m.power, total, ~0ull), own, [&] {
                // Sized up front: growing the buffers block by block
                // frees chunks large enough to raise glibc's mmap
                // threshold for the rest of the process, which cost
                // perfbench's closed-loop workload 2.6 MiB of peak RSS.
                CapturedTrace trace;
                trace.amps.reserve(total);
                trace.activity.reserve(total);
                VoltageSim(cfg, virus).run(total, ~0ull, &trace);
                return trace;
            });
        const double *amps = t.ampsData();
        for (size_t j = total / 2; j < t.cycles(); ++j)
            r.progMax = std::max(r.progMax, amps[j]);
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
        obs::TraceSpan span("reference.target", obs::TraceClass::Det,
                            true);
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

const workloads::StressmarkCalibration &
referenceStressmark()
{
    // Magic-static: initialisation is thread-safe (see above).
    static const workloads::StressmarkCalibration cached = [] {
        const unsigned period =
            pdn::PackageModel(referencePackage(2.0)).resonantPeriodCycles();
        // The span lives here, not in calibrate(): src/workloads sits
        // below src/obs.
        obs::TraceSpan span("stressmark.calibrate", obs::TraceClass::Det,
                            true);
        auto cal = workloads::StressmarkBuilder::calibrate(
            period, referenceMachine().cpu);
        span.arg("period", uint64_t{period})
            .arg("grid_points", uint64_t{cal.gridPoints});
        return cal;
    }();
    return cached;
}

namespace {

/// The reference package's resonance and resistances (paper: 50 MHz,
/// 0.5 mΩ DC); referencePackage designs with them and the threshold
/// solver models the same package.
constexpr double kPackageF0Hz = 50e6;
constexpr double kPackageRDc = 0.5e-3;
constexpr double kPackageRDamp = 0.25e-3;

} // namespace

pdn::PackageParams
referencePackage(double impedanceScale)
{
    const Machine m = referenceMachine();
    return pdn::PackageModel::design(
               kPackageF0Hz, referenceTarget().zTargetOhms * impedanceScale,
               kPackageRDc, kPackageRDamp, m.cpu.clockHz, m.power.vdd)
        .params();
}

ThresholdSpec
referenceThresholdSpec(double impedanceScale, unsigned delayCycles,
                       double sensorError)
{
    const Machine m = referenceMachine();
    const CurrentRange &range = referenceCurrentRange();
    ThresholdSpec spec;
    spec.f0Hz = kPackageF0Hz;
    spec.rDc = kPackageRDc;
    spec.rDamp = kPackageRDamp;
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
    return spec;
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
        entry->value = solveThresholds(referenceThresholdSpec(
            impedanceScale, delayCycles, sensorError));
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

    // Open loop: a call that captures the trace ran the full sim and
    // keeps its own result; every other call — other packages in a
    // sweep, other noise seeds, baseline legs — replays the trace
    // against its own PDN, byte-identically.
    std::optional<VoltageSimResult> mine;
    CapturedTrace own;
    const CapturedTrace &trace = tc.fetchOrCapture(key, own, [&] {
        CapturedTrace t;
        VoltageSim sim(cfg, program);
        mine = sim.run(spec.maxCycles, spec.maxInsts, &t);
        return t;
    });
    if (mine)
        return std::move(*mine);
    VoltageSim sim(cfg, program);
    return sim.runReplay(trace);
}

const CapturedTrace &
fetchTrace(const isa::Program &program, const RunSpec &spec,
           CapturedTrace &fallback)
{
    const VoltageSimConfig cfg = makeSimConfig(spec);
    VGUARD_CHECK(!cfg.sensor);
    return TraceCache::instance().fetchOrCapture(
        openLoopKey(program, spec), fallback, [&] {
            CapturedTrace t;
            VoltageSim sim(cfg, program);
            sim.run(spec.maxCycles, spec.maxInsts, &t);
            return t;
        });
}

Comparison
compareControlled(const isa::Program &program, const RunSpec &spec)
{
    Comparison cmp;

    // Probe how much work fits in the budget, then measure both runs
    // to exactly that instruction count so neither includes a partial
    // stall tail (which would bias the comparison by up to a full
    // memory latency). Only the probe's instruction count is read, so
    // its trace needs no PDN replay.
    RunSpec probe = spec;
    probe.controllerEnabled = false;
    CapturedTrace probeTrace;
    const uint64_t work = fetchTrace(program, probe, probeTrace).committed;

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
