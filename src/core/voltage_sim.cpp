#include "core/voltage_sim.hpp"

#include <algorithm>

#include "obs/tracing.hpp"
#include "util/logging.hpp"

namespace vguard::core {

VoltageSim::VoltageSim(const VoltageSimConfig &cfg, isa::Program program)
    : cfg_(cfg), core_(cfg.cpu, std::move(program)),
      power_(cfg.power, cfg.cpu),
      pdn_(pdn::PackageModel(cfg.package)),
      vNominal_(cfg.package.vNominal),
      tracker_(cfg.package.vNominal * (1.0 - cfg.band),
               cfg.package.vNominal * (1.0 + cfg.band),
               cfg.fingerprintWindow, cfg.maxEvents),
      profiling_(cfg.profiling),
      vMinSeen_(cfg.package.vNominal), vMaxSeen_(cfg.package.vNominal)
{
    // Paper regulator convention: the die sits at nominal voltage when
    // the processor draws its minimum (fully gated) current.
    pdn_.trimToCurrent(power_.minCurrent());

    if (cfg_.sensor)
        controller_.emplace(*cfg_.sensor, cfg_.actuator,
                            cfg_.phantomActuator.value_or(cfg_.actuator));

    // Bind every component into the hierarchical registry (gem5
    // style: counters stay plain members; the registry reads them at
    // snapshot time).
    core_.registerStats(registry_, "cpu");
    power_.registerStats(registry_, "power", 1.0 / cfg_.cpu.clockHz);
    pdn_.registerStats(registry_, "pdn");
    if (controller_)
        controller_->registerStats(registry_, "ctrl");

    registry_.derivedCounter("pdn.emergencies.count",
                             "cycles outside the operating band",
                             [this] { return emLow_ + emHigh_; });
    registry_.derivedCounter("pdn.emergencies.low",
                             "cycles below the band",
                             [this] { return emLow_; });
    registry_.derivedCounter("pdn.emergencies.high",
                             "cycles above the band",
                             [this] { return emHigh_; });
    registry_.derivedCounter(
        "pdn.emergencies.episodes",
        "distinct band excursions (event-log entries + dropped)",
        [this] { return tracker_.log().total(); });
    registry_.derivedCounter("pdn.emergencies.dropped",
                             "episodes dropped by the full event log",
                             [this] { return tracker_.log().dropped(); });
    registry_.derivedCounter(
        "pdn.emergencies.logged",
        "episodes retained in the bounded event log",
        [this] { return uint64_t{tracker_.log().events().size()}; });
    registry_.derivedGauge("pdn.v.min", "lowest die voltage seen [V]",
                           [this] { return vMinSeen_; },
                           obs::MergeRule::Min);
    registry_.derivedGauge("pdn.v.max", "highest die voltage seen [V]",
                           [this] { return vMaxSeen_; },
                           obs::MergeRule::Max);
}

TraceSample
VoltageSim::step()
{
    // Sampled profiling: p is nullptr on unsampled cycles (and always
    // when profiling is off), making every ScopedTimer below trivial.
    obs::Profiler *p =
        profiling_ ? profiler_.beginCycle(cycle_) : nullptr;
    lastProf_ = p;

    const cpu::ActivityVector *av;
    {
        obs::ScopedTimer t(p, obs::Phase::CpuStep);
        av = &core_.cycle();
    }
    lastAv_ = av;

    double amps;
    {
        obs::ScopedTimer t(p, obs::Phase::Power);
        amps = power_.current(*av);
    }

    double volts;
    {
        obs::ScopedTimer t(p, obs::Phase::Pdn);
        volts = pdn_.step(amps);
    }

    if (controller_) {
        obs::ScopedTimer t(p, obs::Phase::Control);
        controller_->step(volts, core_);
    }

    TraceSample s;
    s.cycle = cycle_++;
    s.amps = amps;
    s.volts = volts;
    s.gated = av->gates.any();
    s.phantom = av->phantom.any();
    return s;
}

void
VoltageSim::accountCycle(
    uint64_t cycle, double amps, double volts,
    const std::array<uint32_t, obs::kNumFpChannels> &counts,
    const obs::EmergencyTracker::ControlState &ctrl,
    VoltageSimResult &res, RunAccum &acc)
{
    acc.energy += amps * cfg_.power.vdd * acc.dt;
    res.minV = std::min(res.minV, volts);
    res.maxV = std::max(res.maxV, volts);
    res.voltageHist.add(volts);
    if (volts < acc.vLoBound) {
        ++res.lowEmergencyCycles;
        ++emLow_;
    } else if (volts > acc.vHiBound) {
        ++res.highEmergencyCycles;
        ++emHigh_;
    }
    tracker_.step(cycle, volts, counts, ctrl);
}

void
VoltageSim::runClosedLoop(uint64_t maxCycles, uint64_t maxInsts,
                          VoltageSimResult &res, RunAccum &acc)
{
    while (acc.cycles < maxCycles && !core_.halted() &&
           core_.stats().committed < maxInsts) {
        const TraceSample s = step();
        ++acc.cycles;

        obs::ScopedTimer t(lastProf_, obs::Phase::Events);
        obs::EmergencyTracker::ControlState ctrl;
        if (controller_) {
            ctrl.sensorLevel =
                static_cast<int>(controller_->lastLevel());
            ctrl.sensorReading = controller_->sensor().lastReading();
        }
        ctrl.gating = s.gated;
        ctrl.phantom = s.phantom;
        accountCycle(s.cycle, s.amps, s.volts,
                     obs::fpChannelCounts(*lastAv_), ctrl, res, acc);
    }
}

void
VoltageSim::runOpenLoop(uint64_t maxCycles, uint64_t maxInsts,
                        VoltageSimResult &res, RunAccum &acc,
                        CapturedTrace *capture)
{
    avBuf_.resize(kBlockCycles);
    ampsBuf_.resize(kBlockCycles);
    voltsBuf_.resize(kBlockCycles);
    obs::Profiler *p = profiling_ ? &profiler_ : nullptr;

    while (acc.cycles < maxCycles && !core_.halted() &&
           core_.stats().committed < maxInsts) {
        // Gather a block of activity vectors, re-checking the loop
        // bounds before every core cycle exactly like the per-cycle
        // path (the limits may bind mid-block).
        size_t n = 0;
        {
            obs::ScopedTimer t(p, obs::Phase::CpuStep);
            while (n < kBlockCycles && acc.cycles + n < maxCycles &&
                   !core_.halted() &&
                   core_.stats().committed < maxInsts) {
                avBuf_[n] = core_.cycle();
                ++n;
            }
        }
        if (n == 0)
            break;

        {
            obs::ScopedTimer t(p, obs::Phase::Power);
            power_.currentBlock(avBuf_.data(), n, ampsBuf_.data());
        }
        {
            obs::ScopedTimer t(p, obs::Phase::Pdn);
            pdn_.stepMany(ampsBuf_.data(), n, voltsBuf_.data());
        }
        {
            obs::ScopedTimer t(p, obs::Phase::Events);
            for (size_t k = 0; k < n; ++k) {
                const cpu::ActivityVector &av = avBuf_[k];
                const auto counts = obs::fpChannelCounts(av);
                obs::EmergencyTracker::ControlState ctrl;
                ctrl.gating = av.gates.any();
                ctrl.phantom = av.phantom.any();
                accountCycle(cycle_, ampsBuf_[k], voltsBuf_[k], counts,
                             ctrl, res, acc);
                ++cycle_;
                ++acc.cycles;
                if (capture) {
                    capture->amps.push_back(ampsBuf_[k]);
                    std::array<uint16_t, obs::kNumFpChannels> c16;
                    for (size_t ch = 0; ch < obs::kNumFpChannels; ++ch) {
                        VGUARD_CHECK(counts[ch] <= 0xffffu);
                        c16[ch] = static_cast<uint16_t>(counts[ch]);
                    }
                    capture->activity.push_back(c16);
                }
            }
        }
        if (p)
            p->countBlock(n);
    }
}

VoltageSimResult
VoltageSim::run(uint64_t maxCycles, uint64_t maxInsts,
                CapturedTrace *capture)
{
    // Capturing a closed-loop run would bake one package's actuation
    // feedback into the trace; only open-loop runs are cacheable.
    VGUARD_CHECK(!capture || !controller_);

    VoltageSimResult res;
    res.voltageHist = Histogram(cfg_.histLo, cfg_.histHi, cfg_.histBins);
    res.minV = vNominal_;
    res.maxV = vNominal_;

    // Each run() reports its own actuation counts: clear the actuator
    // counters without disturbing the control loop's physical state
    // (sensor delay line, gating commands already in flight).
    if (controller_)
        controller_->resetCounters();

    // Per-run observability windows: events restart fresh; registry
    // counters are cumulative, so diff a snapshot taken here.
    tracker_.clear();
    profiler_.clear();
    const obs::Snapshot before = registry_.snapshot();

    RunAccum acc;
    acc.vLoBound = vNominal_ * (1.0 - cfg_.band);
    acc.vHiBound = vNominal_ * (1.0 + cfg_.band);
    acc.dt = 1.0 / cfg_.cpu.clockHz;

    if (controller_)
        runClosedLoop(maxCycles, maxInsts, res, acc);
    else
        runOpenLoop(maxCycles, maxInsts, res, acc, capture);

    tracker_.finish();
    vMinSeen_ = std::min(vMinSeen_, res.minV);
    vMaxSeen_ = std::max(vMaxSeen_, res.maxV);

    res.cycles = acc.cycles;
    res.committed = core_.stats().committed;
    res.ipc = acc.cycles
                  ? static_cast<double>(res.committed) / acc.cycles
                  : 0.0;
    res.energyJ = acc.energy;
    res.avgPowerW =
        acc.cycles ? acc.energy / (acc.cycles * acc.dt) : 0.0;
    if (controller_) {
        const auto &act = controller_->actuator();
        res.gatedCycles = act.gatedCycles();
        res.phantomCycles = act.phantomCycles();
        res.lowTriggers = act.lowTriggers();
        res.highTriggers = act.highTriggers();
    }
    res.stats = registry_.snapshot().diff(before);
    res.events = tracker_.log();
    res.profile = profiler_.data();

    if (capture) {
        capture->committed = res.committed;
        capture->halted = core_.halted();
        capture->frontEnd = frontEndSubset(res.stats);
    }
    return res;
}

// vlint: hot
VoltageSimResult
VoltageSim::runReplay(const CapturedTrace &trace, size_t blockCycles)
{
    // Replay is only defined for open-loop configs: a controller would
    // need the real core to actuate, which the trace has elided.
    VGUARD_CHECK(!controller_);
    VGUARD_CHECK(blockCycles > 0);
    VGUARD_CHECK(trace.mapping ||
                 trace.amps.size() == trace.activity.size());

    // One Wall span for the whole replay (block loop below runs
    // thousands of cycles per iteration — no per-cycle events).
    obs::TraceSpan span("replay.run", obs::TraceClass::Wall);
    span.arg("cycles", uint64_t{trace.cycles()});

    VoltageSimResult res;
    res.voltageHist = Histogram(cfg_.histLo, cfg_.histHi, cfg_.histBins);
    res.minV = vNominal_;
    res.maxV = vNominal_;

    tracker_.clear();
    profiler_.clear();
    const obs::Snapshot before = registry_.snapshot();

    RunAccum acc;
    acc.vLoBound = vNominal_ * (1.0 - cfg_.band);
    acc.vHiBound = vNominal_ * (1.0 + cfg_.band);
    acc.dt = 1.0 / cfg_.cpu.clockHz;

    // vlint: allow(alloc-hot) block scratch sized once per replay
    voltsBuf_.resize(blockCycles);
    obs::Profiler *p = profiling_ ? &profiler_ : nullptr;

    const size_t total = trace.cycles();
    const auto *activity = trace.activityData();
    size_t done = 0;
    while (done < total) {
        const size_t n = std::min(blockCycles, total - done);
        const double *amps = trace.ampsData() + done;
        {
            obs::ScopedTimer t(p, obs::Phase::Pdn);
            pdn_.stepMany(amps, n, voltsBuf_.data());
        }
        {
            obs::ScopedTimer t(p, obs::Phase::Events);
            for (size_t k = 0; k < n; ++k) {
                std::array<uint32_t, obs::kNumFpChannels> counts;
                const auto &c16 = activity[done + k];
                for (size_t ch = 0; ch < obs::kNumFpChannels; ++ch)
                    counts[ch] = c16[ch];
                // Open-loop runs never gate: the default ControlState
                // matches what the full-core path records.
                accountCycle(cycle_, amps[k], voltsBuf_[k], counts,
                             obs::EmergencyTracker::ControlState{},
                             res, acc);
                ++cycle_;
                ++acc.cycles;
            }
        }
        if (p)
            p->countBlock(n);
        done += n;
    }

    tracker_.finish();
    vMinSeen_ = std::min(vMinSeen_, res.minV);
    vMaxSeen_ = std::max(vMaxSeen_, res.maxV);

    res.cycles = acc.cycles;
    res.committed = trace.committed;
    res.ipc = acc.cycles
                  ? static_cast<double>(res.committed) / acc.cycles
                  : 0.0;
    res.energyJ = acc.energy;
    res.avgPowerW =
        acc.cycles ? acc.energy / (acc.cycles * acc.dt) : 0.0;

    // The live diff reports zeroed cpu.*/power.* entries (the core and
    // power model never stepped); splice the capture run's front-end
    // entries in verbatim so the snapshot matches a full-core run.
    res.stats = registry_.snapshot().diff(before);
    for (const auto &e : trace.frontEnd.entries())
        res.stats.upsertEntry(e);
    res.events = tracker_.log();
    res.profile = profiler_.data();
    return res;
}

} // namespace vguard::core
