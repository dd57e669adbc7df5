#include "core/multicore_sim.hpp"

#include <algorithm>
#include <cmath>

#include "obs/tracing.hpp"
#include "util/compiler.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace vguard::core {

/** Per-chip mutable state: sensors, governor, actuation, scratch. */
struct MulticoreSim::ChipState
{
    enum class Act : uint8_t { Run, Gated, Phantom };

    std::vector<ThresholdSensor> sensors;  ///< empty when open loop
    std::optional<ChipGovernor> governor;
    std::vector<Act> act;          ///< per-core actuation this cycle
    std::vector<uint8_t> parked;   ///< no/empty trace
    std::vector<double> coreAmps;  ///< this cycle's per-core draw
    std::vector<uint8_t> gateReq, phantomReq, grant;

    /** Cumulative (sim-lifetime) counters for registerStats. */
    std::vector<CoreStats> cumulative;
    RailTally life;  ///< every run's rail tally, merged
};

MulticoreSim::MulticoreSim(std::vector<ChipSpec> chips,
                           pdn::BackendKind kind)
    : chips_(std::move(chips))
{
    VGUARD_CHECK(!chips_.empty());
    std::vector<pdn::LaneConfig> lanes;
    lanes.reserve(chips_.size());
    for (const ChipSpec &chip : chips_) {
        VGUARD_CHECK(!chip.cores.empty());
        for (const CoreSlot &core : chip.cores) {
            VGUARD_CHECK(std::isfinite(core.iGate));
            VGUARD_CHECK(std::isfinite(core.iPhantom));
        }
        // The governor arbitrates the sensors' requests; without
        // sensors there is nothing to arbitrate.
        VGUARD_CHECK(!chip.governor || chip.sensor);
        lanes.push_back({chip.package, chip.iTrim});
    }
    backend_ = pdn::makeBackend(kind, lanes);

    states_.reserve(chips_.size());
    for (const ChipSpec &chip : chips_) {
        auto st = std::make_unique<ChipState>();
        const size_t n = chip.cores.size();
        st->act.assign(n, ChipState::Act::Run);
        st->parked.resize(n);
        for (size_t i = 0; i < n; ++i)
            st->parked[i] = !chip.cores[i].trace ||
                            chip.cores[i].trace->cycles() == 0;
        st->coreAmps.assign(n, 0.0);
        st->cumulative.assign(n, CoreStats{});
        const double vNom = chip.package.vNominal;
        st->life = RailTally(vNom, chip.band, chip.histLo, chip.histHi,
                             chip.histBins);
        if (chip.sensor) {
            anyClosedLoop_ = true;
            st->gateReq.assign(n, 0);
            st->phantomReq.assign(n, 0);
            st->grant.assign(n, 0);
            st->sensors.reserve(n);
            for (size_t i = 0; i < n; ++i) {
                SensorConfig sc = *chip.sensor;
                // Decorrelate the noise streams: each core owns a
                // derived seed, the way campaign runs derive theirs.
                sc.seed = deriveRunSeed(sc.seed, i);
                sc.vNominal = vNom;
                st->sensors.emplace_back(sc);
            }
            if (chip.governor)
                st->governor.emplace(*chip.governor, n, vNom,
                                     chip.band);
        }
        states_.push_back(std::move(st));
    }
}

MulticoreSim::~MulticoreSim() = default;

double
MulticoreSim::coreCurrent(const ChipSpec &chip, ChipState &st,
                          size_t core, uint64_t cycle) const
{
    const CoreSlot &slot = chip.cores[core];
    if (st.parked[core] || st.act[core] == ChipState::Act::Gated)
        return slot.iGate;
    if (st.act[core] == ChipState::Act::Phantom)
        return slot.iPhantom;
    const double *amps = slot.trace->ampsData();
    return amps[(cycle + slot.phaseOffset) % slot.trace->cycles()];
}

void
MulticoreSim::controlCycle(size_t chipIdx, double v,
                           std::vector<ChipResult> &results)
{
    const ChipSpec &chip = chips_[chipIdx];
    ChipState &st = *states_[chipIdx];
    ChipResult &res = results[chipIdx];
    const size_t n = chip.cores.size();

    for (size_t i = 0; i < n; ++i) {
        const VoltageLevel level = st.sensors[i].observe(v);
        const bool canAct = !st.parked[i];
        st.gateReq[i] = canAct && level == VoltageLevel::Low;
        st.phantomReq[i] = canAct && level == VoltageLevel::High;
    }

    if (st.governor) {
        st.governor->observe(v, st.coreAmps.data());
        st.governor->arbitrate(st.gateReq, st.grant);
    } else {
        st.grant = st.gateReq;
    }

    // Arbitration decisions as instant events: only on cycles where
    // some core asked to gate, and only while tracing — controlCycle
    // runs once per simulated cycle per chip.
    if (obs::Tracer::instance().enabled()) {
        uint64_t reqMask = 0, grantMask = 0;
        for (size_t i = 0; i < n && i < 64; ++i) {
            reqMask |= uint64_t{st.gateReq[i] != 0} << i;
            grantMask |= uint64_t{st.grant[i] != 0} << i;
        }
        if (reqMask != 0) {
            obs::TraceInstant inst("chip.arbitrate");
            inst.arg("chip", uint64_t{chipIdx})
                .arg("req_mask", reqMask)
                .arg("grant_mask", grantMask);
            if (st.governor)
                inst.arg("budget", uint64_t{st.governor->budget()});
        }
    }

    for (size_t i = 0; i < n; ++i) {
        if (st.phantomReq[i]) {
            // Phantom requests are always granted: extra draw damps
            // the rail, it never adds a release step.
            st.act[i] = ChipState::Act::Phantom;
        } else if (st.gateReq[i]) {
            ++res.cores[i].gateRequests;
            if (st.grant[i]) {
                st.act[i] = ChipState::Act::Gated;
                ++res.gateGrants;
            } else {
                st.act[i] = ChipState::Act::Run;
                ++res.cores[i].gateDenials;
                ++res.gateDenials;
            }
        } else {
            st.act[i] = ChipState::Act::Run;
        }
    }
}

std::vector<ChipResult>
MulticoreSim::run(uint64_t cycles, size_t blockCycles)
{
    VGUARD_CHECK(blockCycles > 0);
    const size_t k = chips_.size();
    std::vector<ChipResult> results;
    results.reserve(k);
    for (const ChipSpec &chip : chips_) {
        ChipResult &res = results.emplace_back(
            chip.package.vNominal, chip.band, chip.histLo, chip.histHi,
            chip.histBins);
        res.cores.assign(chip.cores.size(), CoreStats{});
    }

    if (!anyClosedLoop_) {
        // Open loop everywhere: no actuation feedback, so the whole
        // current schedule is known up front and streams through the
        // per-lane block kernel. The gather runs core-outer over a
        // contiguous per-chip column instead of calling coreCurrent
        // per (cycle, core): activity never changes in open loop
        // (act[] stays Run — no sensors exist on any chip), so each
        // core contributes either a constant (parked) or wrap-split
        // contiguous slices of its trace. Accumulating the column
        // core-by-core in core-index order from +0.0 performs the
        // exact same FP additions in the exact same order as the old
        // per-cycle sum, so results stay bit-identical.
        std::vector<double> amps(blockCycles * k);
        std::vector<double> volts(blockCycles * k);
        std::vector<double> col(blockCycles);
        uint64_t done = 0;
        while (done < cycles) {
            const size_t chunk = static_cast<size_t>(
                std::min<uint64_t>(blockCycles, cycles - done));
            for (size_t c = 0; c < k; ++c) {
                const ChipSpec &chip = chips_[c];
                const ChipState &st = *states_[c];
                double *VGUARD_RESTRICT acc = col.data();
                std::fill_n(acc, chunk, 0.0);
                for (size_t i = 0; i < chip.cores.size(); ++i) {
                    const CoreSlot &slot = chip.cores[i];
                    if (st.parked[i]) {
                        const double g = slot.iGate;
                        for (size_t cyc = 0; cyc < chunk; ++cyc)
                            acc[cyc] += g;
                        continue;
                    }
                    const double *VGUARD_RESTRICT tr =
                        slot.trace->ampsData();
                    const size_t len = slot.trace->cycles();
                    size_t pos = static_cast<size_t>(
                        (cycle_ + slot.phaseOffset) % len);
                    size_t cyc = 0;
                    while (cyc < chunk) {
                        const size_t run =
                            std::min(chunk - cyc, len - pos);
                        for (size_t j = 0; j < run; ++j)
                            acc[cyc + j] += tr[pos + j];
                        cyc += run;
                        pos = 0;
                    }
                }
                double *VGUARD_RESTRICT rows = amps.data();
                for (size_t cyc = 0; cyc < chunk; ++cyc)
                    rows[cyc * k + c] = acc[cyc];
            }
            {
                // Per-block span, emitted at the core layer (pdn sits
                // below obs and must not include the tracer).
                obs::TraceSpan span("pdn.backend.step_per_lane",
                                    obs::TraceClass::Wall);
                span.arg("cycles", uint64_t{chunk})
                    .arg("lanes", uint64_t{k});
                backend_->stepPerLane(amps.data(), chunk,
                                      volts.data());
            }
            for (size_t cyc = 0; cyc < chunk; ++cyc)
                for (size_t c = 0; c < k; ++c)
                    results[c].add(volts[cyc * k + c]);
            done += chunk;
            cycle_ += chunk;
        }
    } else {
        // At least one chip closes its loop: per-cycle stepping (which
        // the open-loop chips tolerate bit-identically — the per-lane
        // kernels share one canonical summation order).
        std::vector<double> ampsPerLane(k), voltsPerLane(k);
        for (uint64_t t = 0; t < cycles; ++t) {
            for (size_t c = 0; c < k; ++c) {
                const ChipSpec &chip = chips_[c];
                ChipState &st = *states_[c];
                double a = 0.0;
                for (size_t i = 0; i < chip.cores.size(); ++i) {
                    const double ai =
                        coreCurrent(chip, st, i, cycle_);
                    st.coreAmps[i] = ai;
                    a += ai;
                    if (!st.parked[i]) {
                        if (st.act[i] == ChipState::Act::Gated)
                            ++results[c].cores[i].gatedCycles;
                        else if (st.act[i] == ChipState::Act::Phantom)
                            ++results[c].cores[i].phantomCycles;
                    }
                }
                ampsPerLane[c] = a;
            }
            backend_->stepCycle(ampsPerLane.data(),
                                voltsPerLane.data());
            for (size_t c = 0; c < k; ++c) {
                results[c].add(voltsPerLane[c]);
                if (!states_[c]->sensors.empty())
                    controlCycle(c, voltsPerLane[c], results);
            }
            ++cycle_;
        }
    }

    // Fairness + cumulative rollup.
    for (size_t c = 0; c < k; ++c) {
        ChipResult &res = results[c];
        ChipState &st = *states_[c];
        st.life.merge(res);
        double sum = 0.0, sumSq = 0.0;
        size_t n = 0;
        for (size_t i = 0; i < res.cores.size(); ++i) {
            st.cumulative[i].gatedCycles += res.cores[i].gatedCycles;
            st.cumulative[i].phantomCycles +=
                res.cores[i].phantomCycles;
            st.cumulative[i].gateRequests += res.cores[i].gateRequests;
            st.cumulative[i].gateDenials += res.cores[i].gateDenials;
            if (st.parked[i])
                continue;
            const double x =
                static_cast<double>(res.cores[i].gatedCycles);
            sum += x;
            sumSq += x * x;
            ++n;
        }
        res.gateFairness =
            (n == 0 || sum == 0.0)
                ? 1.0
                : (sum * sum) / (static_cast<double>(n) * sumSq);
    }
    return results;
}

void
MulticoreSim::registerStats(obs::Registry &r,
                            const std::string &prefix) const
{
    for (size_t c = 0; c < chips_.size(); ++c) {
        const std::string cp =
            prefix + ".chip" + std::to_string(c);
        const ChipState *st = states_[c].get();
        r.derivedCounter(cp + ".low_emergency_cycles",
                         "cycles below the emergency band",
                         [st] { return st->life.lowEmergencyCycles; });
        r.derivedCounter(cp + ".high_emergency_cycles",
                         "cycles above the emergency band",
                         [st] { return st->life.highEmergencyCycles; });
        for (size_t i = 0; i < chips_[c].cores.size(); ++i) {
            const std::string base =
                cp + ".core" + std::to_string(i);
            r.derivedCounter(base + ".gated_cycles",
                             "cycles spent clock-gated",
                             [st, i] {
                                 return st->cumulative[i].gatedCycles;
                             });
            r.derivedCounter(
                base + ".phantom_cycles",
                "cycles spent phantom firing", [st, i] {
                    return st->cumulative[i].phantomCycles;
                });
            r.derivedCounter(base + ".gate_requests",
                             "sensor-Low gate requests",
                             [st, i] {
                                 return st->cumulative[i].gateRequests;
                             });
            r.derivedCounter(
                base + ".gate_denials",
                "gate requests the governor denied", [st, i] {
                    return st->cumulative[i].gateDenials;
                });
            if (!st->sensors.empty())
                st->sensors[i].registerStats(r, base + ".sensor");
        }
        if (st->governor)
            st->governor->registerStats(r, cp + ".governor");
    }
}

std::vector<ChipResult>
runChips(const std::vector<ChipSpec> &chips, uint64_t cycles,
         pdn::BackendKind kind, size_t blockCycles)
{
    MulticoreSim sim(chips, kind);
    return sim.run(cycles, blockCycles);
}

} // namespace vguard::core
