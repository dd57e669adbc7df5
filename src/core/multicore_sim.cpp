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
    std::vector<double> coreAmps;  ///< per-core draw (governor input)
    std::vector<uint8_t> gateReq, phantomReq, grant;
    /** Where each run's result starts. Built with the sim, so a bad
        band or histogram is refused at construction. */
    ChipResult blank;
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
        const double vNom = chip.package.vNominal;
        st->blank = ChipResult(vNom, chip.band, chip.histLo, chip.histHi,
                               chip.histBins);
        st->blank.cores.assign(n, CoreStats{});
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

void
MulticoreSim::gather(size_t chipIdx, size_t n, double *VGUARD_RESTRICT col,
                     ChipResult &res)
{
    const ChipSpec &chip = chips_[chipIdx];
    ChipState &st = *states_[chipIdx];
    // A closed-loop gather is one cycle long; a memset call for one
    // double would cost more than the rest of a 1-core chip's gather.
    if (n == 1)
        col[0] = 0.0;
    else
        std::fill_n(col, n, 0.0);
    for (size_t i = 0; i < chip.cores.size(); ++i) {
        const CoreSlot &slot = chip.cores[i];
        if (st.parked[i] || st.act[i] != ChipState::Act::Run) {
            // A held draw: parked and gated cores at iGate, a phantom
            // firing core at iPhantom. Parked cores never act, so
            // their cycles count as neither gated nor phantom.
            const bool phantom = st.act[i] == ChipState::Act::Phantom;
            const double a = phantom ? slot.iPhantom : slot.iGate;
            if (!st.parked[i])
                (phantom ? res.cores[i].phantomCycles
                         : res.cores[i].gatedCycles) += n;
            st.coreAmps[i] = a;
            for (size_t cyc = 0; cyc < n; ++cyc)
                col[cyc] += a;
            continue;
        }
        // A running core replays its trace from its phase, in
        // contiguous slices split where the trace wraps.
        const double *VGUARD_RESTRICT tr = slot.trace->ampsData();
        const size_t len = slot.trace->cycles();
        size_t pos = static_cast<size_t>((cycle_ + slot.phaseOffset) % len);
        st.coreAmps[i] = tr[pos];
        size_t cyc = 0;
        while (cyc < n) {
            const size_t run = std::min(n - cyc, len - pos);
            for (size_t j = 0; j < run; ++j)
                col[cyc + j] += tr[pos + j];
            cyc += run;
            pos = 0;
        }
    }
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
    for (const auto &st : states_)
        results.push_back(st->blank);

    // A sensed chip's next draw depends on this cycle's voltage, so a
    // run with one steps a cycle at a time; open-loop runs know their
    // whole current schedule up front and stream it in blocks. Both go
    // through the same gather → stepPerLane → tally and control loop.
    const size_t block = anyClosedLoop_ ? 1 : blockCycles;
    std::vector<double> amps(block * k);
    std::vector<double> volts(block * k);
    std::vector<double> col(block);
    uint64_t done = 0;
    while (done < cycles) {
        const size_t chunk = static_cast<size_t>(
            std::min<uint64_t>(block, cycles - done));
        for (size_t c = 0; c < k; ++c) {
            gather(c, chunk, col.data(), results[c]);
            for (size_t cyc = 0; cyc < chunk; ++cyc)
                amps[cyc * k + c] = col[cyc];
        }
        {
            // Per-block span, emitted at the core layer (pdn sits
            // below obs and must not include the tracer). Per-cycle
            // closed-loop steps emit none.
            std::optional<obs::TraceSpan> span;
            if (!anyClosedLoop_) {
                span.emplace("pdn.backend.step_per_lane",
                             obs::TraceClass::Wall);
                span->arg("cycles", uint64_t{chunk})
                    .arg("lanes", uint64_t{k});
            }
            backend_->stepPerLane(amps.data(), chunk, volts.data());
        }
        for (size_t cyc = 0; cyc < chunk; ++cyc) {
            for (size_t c = 0; c < k; ++c) {
                const double v = volts[cyc * k + c];
                results[c].add(v);
                if (!states_[c]->sensors.empty())
                    controlCycle(c, v, results);
            }
        }
        done += chunk;
        cycle_ += chunk;
    }

    // Fairness over the cores that can gate.
    for (size_t c = 0; c < k; ++c) {
        ChipResult &res = results[c];
        const ChipState &st = *states_[c];
        double sum = 0.0, sumSq = 0.0;
        size_t n = 0;
        for (size_t i = 0; i < res.cores.size(); ++i) {
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

std::vector<ChipResult>
runChips(const std::vector<ChipSpec> &chips, uint64_t cycles,
         pdn::BackendKind kind, size_t blockCycles)
{
    MulticoreSim sim(chips, kind);
    return sim.run(cycles, blockCycles);
}

} // namespace vguard::core
