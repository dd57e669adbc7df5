#include "core/multicore_sim.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "obs/tracing.hpp"
#include "util/compiler.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace vguard::core {

namespace {

/** Per-chip mutable state: replay cursors, sensing, actuation. */
struct ChipState
{
    /** A core's actuation this cycle; a parked core stays Parked. */
    enum class Act : uint8_t { Run, Gated, Phantom, Parked };

    // Per-core replay source: the trace's samples and length (null and
    // 0 when parked) and the cursor, the trace index of the next
    // cycle, which advances with the clock whatever the core does.
    std::vector<const double *> trace;
    std::vector<size_t> len;
    std::vector<size_t> pos;
    std::vector<Act> act;
    size_t acting = 0;             ///< cores Gated or Phantom
    std::vector<double> coreAmps;  ///< per-core draw (governor input)

    /** The rail's delay line and thresholds, noise 0; unset when open
        loop. */
    std::optional<ThresholdSensor> sensor;
    /** Per-core reading error streams; empty when noise-free. */
    std::vector<Rng> noise;
    std::vector<VoltageLevel> level;  ///< per-core reading this cycle
    std::optional<ChipGovernor> governor;
    std::vector<uint8_t> gateReq, grant;
};

/**
 * The body of runChips: K chips, borrowed from the caller, stepped in
 * lockstep through one PdnBackend from reset. run() is called once.
 */
class MulticoreSim
{
  public:
    MulticoreSim(const std::vector<ChipSpec> &chips,
                 pdn::BackendKind kind);

    /**
     * Advance every chip @p cycles cycles, in blocks of @p blockCycles
     * when every chip is open loop and one cycle at a time otherwise.
     * Returns each chip's result.
     */
    std::vector<ChipResult> run(uint64_t cycles, size_t blockCycles);

  private:
    /**
     * Open-loop chip @p chipIdx's summed rail draw for the next @p n
     * cycles into @p col, core-outer in core-index order from +0.0:
     * the same FP additions in the same order as a per-cycle sum.
     * Every core runs its trace or is parked, since a run with a
     * sensed chip gathers one cycle at a time.
     */
    void gatherBlock(size_t chipIdx, size_t n, double *col);
    /**
     * Chip @p chipIdx's summed rail draw for the next cycle under
     * this cycle's actuation, summed in core-index order from +0.0.
     * Charges gated and phantom cycles to @p res and records each
     * core's draw in coreAmps, the governor's input.
     */
    double gatherCycle(size_t chipIdx, ChipResult &res);
    /**
     * Sensed chip @p chipIdx's control for a cycle at rail voltage
     * @p v: one sensor reading of the rail, the governor's PI and EWMA
     * update, and, unless the cycle is quiet (no core asks and none
     * is gated or phantom firing), the requests, arbitration and next
     * cycle's actuation, charged to @p res. @p traced emits the
     * `chip.arbitrate` instants.
     */
    void controlCycle(size_t chipIdx, double v, ChipResult &res,
                      bool traced);

    const std::vector<ChipSpec> &chips_;
    std::unique_ptr<pdn::PdnBackend> backend_;
    std::vector<ChipState> states_;
    bool anyClosedLoop_ = false;
};

MulticoreSim::MulticoreSim(const std::vector<ChipSpec> &chips,
                           pdn::BackendKind kind)
    : chips_(chips)
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
        // The rail sensor below runs noise-free, so it cannot refuse
        // a bad noise magnitude itself.
        VGUARD_CHECK(!chip.sensor ||
                     (std::isfinite(chip.sensor->noiseMagnitude) &&
                      chip.sensor->noiseMagnitude >= 0.0));
        lanes.push_back({chip.package, chip.iTrim});
    }
    backend_ = pdn::makeBackend(kind, lanes);

    using Act = ChipState::Act;
    states_.resize(chips_.size());
    for (size_t c = 0; c < chips_.size(); ++c) {
        const ChipSpec &chip = chips_[c];
        ChipState &st = states_[c];
        const size_t n = chip.cores.size();
        st.trace.assign(n, nullptr);
        st.len.assign(n, 0);
        st.pos.assign(n, 0);
        st.act.assign(n, Act::Run);
        for (size_t i = 0; i < n; ++i) {
            const CoreSlot &slot = chip.cores[i];
            if (!slot.trace || slot.trace->cycles() == 0) {
                st.act[i] = Act::Parked;
                continue;
            }
            st.trace[i] = slot.trace->ampsData();
            st.len[i] = slot.trace->cycles();
            st.pos[i] = slot.phaseOffset % st.len[i];
        }
        st.coreAmps.assign(n, 0.0);
        const double vNom = chip.package.vNominal;
        if (chip.sensor) {
            anyClosedLoop_ = true;
            SensorConfig rail = *chip.sensor;
            rail.vNominal = vNom;
            rail.noiseMagnitude = 0.0;
            st.sensor.emplace(rail);
            if (chip.sensor->noiseMagnitude > 0.0) {
                // Decorrelate the reading errors: each core owns a
                // derived seed, the way campaign runs derive theirs.
                st.noise.reserve(n);
                for (size_t i = 0; i < n; ++i)
                    st.noise.emplace_back(
                        deriveRunSeed(chip.sensor->seed, i));
            }
            st.level.assign(n, VoltageLevel::Normal);
            st.gateReq.assign(n, 0);
            st.grant.assign(n, 0);
            if (chip.governor)
                st.governor.emplace(*chip.governor, n, vNom, chip.band);
        }
    }
}

void
MulticoreSim::gatherBlock(size_t chipIdx, size_t n,
                          double *VGUARD_RESTRICT col)
{
    const ChipSpec &chip = chips_[chipIdx];
    ChipState &st = states_[chipIdx];
    std::fill_n(col, n, 0.0);
    for (size_t i = 0; i < st.act.size(); ++i) {
        if (st.act[i] == ChipState::Act::Parked) {
            const double a = chip.cores[i].iGate;
            for (size_t cyc = 0; cyc < n; ++cyc)
                col[cyc] += a;
            continue;
        }
        // A running core replays its trace from its cursor, in
        // contiguous slices split where the trace wraps.
        const double *VGUARD_RESTRICT tr = st.trace[i];
        const size_t len = st.len[i];
        size_t pos = st.pos[i];
        size_t cyc = 0;
        while (cyc < n) {
            const size_t run = std::min(n - cyc, len - pos);
            for (size_t j = 0; j < run; ++j)
                col[cyc + j] += tr[pos + j];
            cyc += run;
            pos += run;
            if (pos == len)
                pos = 0;
        }
        st.pos[i] = pos;
    }
}

double
MulticoreSim::gatherCycle(size_t chipIdx, ChipResult &res)
{
    using Act = ChipState::Act;
    const ChipSpec &chip = chips_[chipIdx];
    ChipState &st = states_[chipIdx];
    const size_t n = st.act.size();
    const Act *act = st.act.data();
    const double *const *trace = st.trace.data();
    const size_t *len = st.len.data();
    size_t *VGUARD_RESTRICT pos = st.pos.data();
    double *VGUARD_RESTRICT amps = st.coreAmps.data();
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
        double a;
        if (act[i] == Act::Run) {
            a = trace[i][pos[i]];
        } else {
            // A held draw: parked and gated cores at iGate, a phantom
            // firing core at iPhantom. Parked cores never act, so
            // their cycles count as neither gated nor phantom.
            a = act[i] == Act::Phantom ? chip.cores[i].iPhantom
                                       : chip.cores[i].iGate;
            if (act[i] == Act::Gated)
                ++res.cores[i].gatedCycles;
            else if (act[i] == Act::Phantom)
                ++res.cores[i].phantomCycles;
        }
        amps[i] = a;
        sum += a;
        if (act[i] != Act::Parked) {
            const size_t next = pos[i] + 1;
            pos[i] = next == len[i] ? 0 : next;
        }
    }
    return sum;
}

void
MulticoreSim::controlCycle(size_t chipIdx, double v, ChipResult &res,
                           bool traced)
{
    using Act = ChipState::Act;
    ChipState &st = states_[chipIdx];
    const size_t n = st.act.size();

    // One reading of the shared rail: every core senses the same
    // delayed voltage, and only its reading error is its own.
    const VoltageLevel rail = st.sensor->observe(v);
    bool asked = false;  // some core may read other than Normal
    if (st.noise.empty()) {
        asked = rail != VoltageLevel::Normal;
    } else {
        const double reading = st.sensor->lastReading();
        const double e = chips_[chipIdx].sensor->noiseMagnitude;
        for (size_t i = 0; i < n; ++i) {
            if (st.act[i] == Act::Parked)
                continue;
            st.level[i] = st.sensor->classify(
                reading + st.noise[i].uniform(-e, e));
            asked |= st.level[i] != VoltageLevel::Normal;
        }
    }
    if (st.governor)
        st.governor->observe(v, st.coreAmps.data());

    // A quiet cycle: no core asks and none is acting, so every core
    // runs on and there is nothing to arbitrate or actuate.
    if (!asked && st.acting == 0)
        return;

    // A noise-free chip's live cores all read the rail's level.
    if (st.noise.empty())
        for (size_t i = 0; i < n; ++i)
            st.level[i] =
                st.act[i] == Act::Parked ? VoltageLevel::Normal : rail;
    size_t requests = 0;
    for (size_t i = 0; i < n; ++i) {
        st.gateReq[i] = st.level[i] == VoltageLevel::Low;
        requests += st.gateReq[i];
    }
    if (st.governor)
        st.governor->arbitrate(st.gateReq, st.grant);
    else
        st.grant = st.gateReq;

    size_t grants = 0;
    st.acting = 0;
    for (size_t i = 0; i < n; ++i) {
        if (st.act[i] == Act::Parked)
            continue;
        // Phantom requests are always granted: extra draw damps the
        // rail, it never adds a release step.
        const bool phantom = st.level[i] == VoltageLevel::High;
        const bool gate = st.gateReq[i] != 0;
        const bool granted = gate && st.grant[i] != 0;
        st.act[i] = phantom ? Act::Phantom
                    : granted ? Act::Gated
                              : Act::Run;
        res.cores[i].gateRequests += gate;
        res.cores[i].gateDenials += gate && !granted;
        grants += granted;
        st.acting += phantom || granted;
    }
    res.gateGrants += grants;
    res.gateDenials += requests - grants;

    // Arbitration decisions as instant events, on cycles where some
    // core asked to gate. The masks cover cores 0-63 only; the counts
    // cover every core.
    if (traced && requests > 0) {
        uint64_t reqMask = 0, grantMask = 0;
        for (size_t i = 0; i < n && i < 64; ++i) {
            reqMask |= uint64_t{st.gateReq[i] != 0} << i;
            grantMask |= uint64_t{st.grant[i] != 0} << i;
        }
        obs::TraceInstant inst("chip.arbitrate");
        inst.arg("chip", uint64_t{chipIdx})
            .arg("requests", uint64_t{requests})
            .arg("grants", uint64_t{grants})
            .arg("req_mask", reqMask)
            .arg("grant_mask", grantMask);
        if (st.governor)
            inst.arg("budget", uint64_t{st.governor->budget()});
    }
}

std::vector<ChipResult>
MulticoreSim::run(uint64_t cycles, size_t blockCycles)
{
    VGUARD_CHECK(blockCycles > 0);
    const size_t k = chips_.size();
    // A bad band or histogram dies here, in RailTally's constructor.
    std::vector<ChipResult> results;
    results.reserve(k);
    for (const ChipSpec &chip : chips_) {
        results.emplace_back(chip.package.vNominal, chip.band,
                             chip.histLo, chip.histHi, chip.histBins);
        results.back().cores.assign(chip.cores.size(), CoreStats{});
    }

    // A sensed chip's next draw depends on this cycle's voltage, so a
    // run with one steps a cycle at a time; open-loop runs know their
    // whole current schedule up front and stream it in blocks. Both go
    // through the same gather → stepPerLane → tally and control loop.
    const size_t block = anyClosedLoop_ ? 1 : blockCycles;
    const bool traced = obs::Tracer::instance().enabled();
    std::vector<double> amps(block * k);
    std::vector<double> volts(block * k);
    std::vector<double> col(block);
    uint64_t done = 0;
    while (done < cycles) {
        const size_t chunk = static_cast<size_t>(
            std::min<uint64_t>(block, cycles - done));
        for (size_t c = 0; c < k; ++c) {
            if (anyClosedLoop_) {
                amps[c] = gatherCycle(c, results[c]);
                continue;
            }
            gatherBlock(c, chunk, col.data());
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
                if (states_[c].sensor)
                    controlCycle(c, v, results[c], traced);
            }
        }
        done += chunk;
    }

    // Fairness over the cores that can gate.
    for (size_t c = 0; c < k; ++c) {
        ChipResult &res = results[c];
        const ChipState &st = states_[c];
        double sum = 0.0, sumSq = 0.0;
        size_t n = 0;
        for (size_t i = 0; i < res.cores.size(); ++i) {
            if (st.act[i] == ChipState::Act::Parked)
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

} // namespace

std::vector<ChipResult>
runChips(const std::vector<ChipSpec> &chips, uint64_t cycles,
         pdn::BackendKind kind, size_t blockCycles)
{
    return MulticoreSim(chips, kind).run(cycles, blockCycles);
}

} // namespace vguard::core
