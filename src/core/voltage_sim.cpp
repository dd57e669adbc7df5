#include "core/voltage_sim.hpp"

#include <algorithm>

#include "obs/tracing.hpp"
#include "util/logging.hpp"

namespace vguard::core {

namespace {

/** The episode tracker of @p cfg's band. Its edges come from the
    rail's tally, whose constructor refuses a bad band or histogram,
    so a sim with one dies at construction. */
obs::EmergencyTracker
bandTracker(const VoltageSimConfig &cfg)
{
    const RailTally rail = cfg.railTally();
    return obs::EmergencyTracker(rail.vLo(), rail.vHi(),
                                 obs::kFingerprintWindow, obs::kMaxEvents);
}

} // namespace

VoltageSim::VoltageSim(const VoltageSimConfig &cfg, isa::Program program)
    : cfg_(cfg), core_(cfg.cpu, std::move(program)),
      power_(cfg.power, cfg.cpu),
      pdn_(pdn::PackageModel(cfg.package)),
      tracker_(bandTracker(cfg)),
      sampling_(obs::Tracer::instance().enabled())
{
    // Paper regulator convention: the die sits at nominal voltage when
    // the processor draws its minimum (fully gated) current.
    pdn_.trimToCurrent(power_.minCurrent());

    if (cfg_.sensor)
        controller_.emplace(*cfg_.sensor, cfg_.actuator,
                            cfg_.phantomActuator.value_or(cfg_.actuator));
}

obs::Snapshot
VoltageSim::snapshotStats(const RailTally &rail) const
{
    obs::Snapshot s;
    core_.appendStats(s, "cpu");
    power_.appendStats(s, "power", 1.0 / cfg_.cpu.clockHz);
    pdn_.appendStats(s, "pdn");
    if (controller_)
        controller_->appendStats(s, "ctrl");

    const obs::EventLog &log = tracker_.log();
    s.addCounter("pdn.emergencies.count",
                 "cycles outside the operating band",
                 rail.emergencyCycles());
    s.addCounter("pdn.emergencies.low", "cycles below the band",
                 rail.lowEmergencyCycles);
    s.addCounter("pdn.emergencies.high", "cycles above the band",
                 rail.highEmergencyCycles);
    s.addCounter("pdn.emergencies.episodes",
                 "distinct band excursions (event-log entries + dropped)",
                 log.total());
    s.addCounter("pdn.emergencies.dropped",
                 "episodes dropped by the full event log", log.dropped());
    s.addCounter("pdn.emergencies.logged",
                 "episodes retained in the bounded event log",
                 uint64_t{log.events().size()});
    s.addGauge("pdn.v.min", "lowest die voltage seen [V]", rail.minV,
               obs::MergeRule::Min);
    s.addGauge("pdn.v.max", "highest die voltage seen [V]", rail.maxV,
               obs::MergeRule::Max);
    return s;
}

VoltageSim::~VoltageSim()
{
    // Every cycle this sim ran counts, whatever result its caller
    // kept (an abandoned sensed replay too).
    if (sampling_)
        obs::Tracer::instance().addCycles(cycle_, sampledCycles_);
}

TraceSample
VoltageSim::step()
{
    // While sampling, time 1 cycle in 64; every other cycle's timers
    // are inert.
    timed_ = sampling_ && cycle_ % obs::Tracer::kSampleEvery == 0;
    if (timed_)
        ++sampledCycles_;

    const cpu::ActivityVector *av;
    {
        obs::PhaseTimer t(timed_, obs::Phase::CpuStep);
        av = &core_.cycle();
    }
    lastAv_ = av;

    double amps;
    {
        obs::PhaseTimer t(timed_, obs::Phase::Power);
        amps = power_.current(*av);
    }

    double volts;
    {
        obs::PhaseTimer t(timed_, obs::Phase::Pdn);
        volts = pdn_.step(amps);
    }

    if (controller_) {
        obs::PhaseTimer t(timed_, obs::Phase::Control);
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
VoltageSim::account(uint64_t first, const double *amps,
                    const double *volts, const obs::ActivityRow *rows,
                    size_t n,
                    const obs::EmergencyTracker::ControlState &ctrl,
                    VoltageSimResult &res)
{
    const double dt = 1.0 / cfg_.cpu.clockHz;
    for (size_t k = 0; k < n; ++k) {
        res.energyJ += amps[k] * cfg_.power.vdd * dt;
        res.add(volts[k]);
        tracker_.step(first + k, volts[k], rows[k], ctrl);
    }
}

void
VoltageSim::runClosedLoop(uint64_t maxCycles, uint64_t maxInsts,
                          VoltageSimResult &res)
{
    while (res.cycles < maxCycles && !core_.halted() &&
           core_.stats().committed < maxInsts) {
        const TraceSample s = step();

        obs::PhaseTimer t(timed_, obs::Phase::Events);
        obs::EmergencyTracker::ControlState ctrl;
        if (controller_) {
            ctrl.sensorLevel =
                static_cast<int>(controller_->lastLevel());
            ctrl.sensorReading = controller_->sensor().lastReading();
        }
        ctrl.gating = s.gated;
        ctrl.phantom = s.phantom;
        const obs::ActivityRow row = obs::fpChannelCounts(*lastAv_);
        account(s.cycle, &s.amps, &s.volts, &row, 1, ctrl, res);
    }
}

void
VoltageSim::runOpenLoop(uint64_t maxCycles, uint64_t maxInsts,
                        VoltageSimResult &res, CapturedTrace *capture)
{
    avBuf_.resize(kBlockCycles);
    ampsBuf_.resize(kBlockCycles);
    voltsBuf_.resize(kBlockCycles);
    rowBuf_.resize(kBlockCycles);

    while (res.cycles < maxCycles && !core_.halted() &&
           core_.stats().committed < maxInsts) {
        // Decided on the block's length before the gather, which may
        // end it early if the core halts or maxInsts binds.
        const bool timed =
            sampling_ &&
            obs::Tracer::sampleBlock(
                std::min<uint64_t>(kBlockCycles, maxCycles - res.cycles),
                kBlockCycles);
        // Gather a block of activity vectors, re-checking the loop
        // bounds before every core cycle exactly like the per-cycle
        // path (the limits may bind mid-block).
        size_t n = 0;
        {
            obs::PhaseTimer t(timed, obs::Phase::CpuStep);
            while (n < kBlockCycles && res.cycles + n < maxCycles &&
                   !core_.halted() &&
                   core_.stats().committed < maxInsts) {
                avBuf_[n] = core_.cycle();
                ++n;
            }
        }
        if (n == 0)
            break;

        {
            obs::PhaseTimer t(timed, obs::Phase::Power);
            power_.currentBlock(avBuf_.data(), n, ampsBuf_.data());
        }
        {
            obs::PhaseTimer t(timed, obs::Phase::Pdn);
            pdn_.stepMany(ampsBuf_.data(), n, voltsBuf_.data());
        }
        {
            obs::PhaseTimer t(timed, obs::Phase::Events);
            for (size_t k = 0; k < n; ++k)
                rowBuf_[k] = obs::fpChannelCounts(avBuf_[k]);
            // Without a controller nothing gates or phantom-fires, so
            // every cycle runs under the default control state — the
            // same one a replay of this capture records.
            account(cycle_, ampsBuf_.data(), voltsBuf_.data(),
                    rowBuf_.data(), n, {}, res);
            cycle_ += n;
            if (capture) {
                capture->amps.insert(capture->amps.end(),
                                     ampsBuf_.begin(),
                                     ampsBuf_.begin() + n);
                capture->activity.insert(capture->activity.end(),
                                         rowBuf_.begin(),
                                         rowBuf_.begin() + n);
            }
        }
        if (timed)
            sampledCycles_ += n;
    }
}

VoltageSimResult
VoltageSim::beginRun()
{
    // The run's stats are its components' counters when it ends, so
    // they must start it at zero: a sim runs once, from its first
    // cycle.
    VGUARD_CHECK(!ran_ && cycle_ == 0);
    ran_ = true;
    return VoltageSimResult(cfg_.package.vNominal, cfg_.band, cfg_.histLo,
                            cfg_.histHi, cfg_.histBins);
}

void
VoltageSim::finishRun(VoltageSimResult &res, uint64_t committed)
{
    tracker_.finish();

    const double dt = 1.0 / cfg_.cpu.clockHz;
    res.committed = committed;
    res.ipc = res.cycles
                  ? static_cast<double>(res.committed) / res.cycles
                  : 0.0;
    res.avgPowerW =
        res.cycles ? res.energyJ / (res.cycles * dt) : 0.0;
    res.stats = snapshotStats(res);
    res.events = tracker_.log();
}

VoltageSimResult
VoltageSim::run(uint64_t maxCycles, uint64_t maxInsts,
                CapturedTrace *capture)
{
    // Capturing a closed-loop run would bake one package's actuation
    // feedback into the trace; only open-loop runs are cacheable.
    VGUARD_CHECK(!capture || !controller_);

    VoltageSimResult res = beginRun();
    if (controller_)
        runClosedLoop(maxCycles, maxInsts, res);
    else
        runOpenLoop(maxCycles, maxInsts, res, capture);
    finishRun(res, core_.stats().committed);

    if (controller_) {
        const auto &act = controller_->actuator();
        res.gatedCycles = act.gatedCycles();
        res.phantomCycles = act.phantomCycles();
        res.lowTriggers = act.lowTriggers();
        res.highTriggers = act.highTriggers();
    }
    if (capture) {
        capture->committed = res.committed;
        capture->halted = core_.halted();
        capture->frontEnd = frontEndSubset(res.stats);
    }
    return res;
}

VoltageSimResult
VoltageSim::runReplay(const CapturedTrace &trace, size_t blockCycles)
{
    // Open-loop replay: a controller would need the real core to
    // actuate, which the trace has elided (runSensedReplay replays a
    // closed loop only while it stays passive).
    VGUARD_CHECK(!controller_);
    return *replay(trace, blockCycles);
}

std::optional<VoltageSimResult>
VoltageSim::runSensedReplay(const CapturedTrace &trace)
{
    // The trace starts from a reset core; beginRun refuses a sim that
    // is not fresh, whose sensor, PDN and cycle count would not line
    // up with it.
    VGUARD_CHECK(controller_);
    return replay(trace, kBlockCycles);
}

std::optional<VoltageSimResult>
VoltageSim::replay(const CapturedTrace &trace, size_t blockCycles)
{
    VGUARD_CHECK(blockCycles > 0);
    VGUARD_CHECK(trace.mapping ||
                 trace.amps.size() == trace.activity.size());

    // One Wall span for the whole replay (block loop below runs
    // thousands of cycles per iteration — no per-cycle events). Wall,
    // not Det: whether a closed-loop job finds a trace to replay
    // depends on which open-loop legs other workers finished first.
    obs::TraceSpan span(controller_ ? "replay.sensed" : "replay.run",
                        obs::TraceClass::Wall);
    span.arg("cycles", uint64_t{trace.cycles()});

    VoltageSimResult res = beginRun();
    const size_t done = replayBlocks(trace, blockCycles, res);
    if (done < trace.cycles()) {
        // The sensor left Normal: the actuator would act from the
        // next cycle on, which the trace cannot show.
        span.arg("abort_cycle", uint64_t{done});
        return std::nullopt;
    }
    finishRun(res, trace.committed);

    // The snapshot reports zeroed cpu.*/power.* entries (the core and
    // power model never stepped); splice the capture run's front-end
    // entries in verbatim so it matches a full-core run's.
    // A passive controller never gated or phantom-fired, so the
    // actuation counts keep their zero defaults.
    for (const auto &e : trace.frontEnd.entries())
        res.stats.upsertEntry(e);
    return res;
}

// vlint: hot
size_t
VoltageSim::replayBlocks(const CapturedTrace &trace, size_t blockCycles,
                         VoltageSimResult &res)
{
    // vlint: allow(alloc-hot) block scratch sized once per replay
    voltsBuf_.resize(blockCycles);

    // A passive closed loop records what runClosedLoop would: level
    // Normal, this cycle's reading, no gating, no phantom firing.
    obs::EmergencyTracker::ControlState passive;
    passive.sensorLevel = static_cast<int>(VoltageLevel::Normal);

    const size_t total = trace.cycles();
    size_t done = 0;
    while (done < total) {
        const size_t n = std::min(blockCycles, total - done);
        const double *amps = trace.ampsData() + done;
        const obs::ActivityRow *rows = trace.activityData() + done;
        const bool timed =
            sampling_ && obs::Tracer::sampleBlock(n, blockCycles);
        {
            obs::PhaseTimer t(timed, obs::Phase::Pdn);
            pdn_.stepMany(amps, n, voltsBuf_.data());
        }
        {
            obs::PhaseTimer t(timed, obs::Phase::Events);
            if (!controller_) {
                account(cycle_, amps, voltsBuf_.data(), rows, n, {},
                        res);
            } else {
                for (size_t k = 0; k < n; ++k) {
                    // On Normal the actuator only clears gates that
                    // were never set; anything else ends the replay.
                    controller_->step(voltsBuf_[k], core_);
                    if (controller_->lastLevel() != VoltageLevel::Normal)
                        return done + k;
                    passive.sensorReading =
                        controller_->sensor().lastReading();
                    account(cycle_ + k, amps + k, voltsBuf_.data() + k,
                            rows + k, 1, passive, res);
                }
            }
            cycle_ += n;
        }
        if (timed)
            sampledCycles_ += n;
        done += n;
    }
    return done;
}

} // namespace vguard::core
