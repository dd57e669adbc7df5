#include "core/threshold_solver.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include <memory>

#include "core/sensor.hpp"
#include "linsys/worst_case.hpp"
#include "obs/tracing.hpp"
#include "pdn/impulse.hpp"
#include "pdn/pdn_backend.hpp"
#include "pdn/pdn_sim.hpp"
#include "util/logging.hpp"

namespace vguard::core {

namespace {

using pdn::PackageModel;
using pdn::PdnSim;

/** Adversarial current demand scenarios for the closed loop. */
std::vector<std::vector<double>>
buildScenarios(const PackageModel &model, const ThresholdSpec &spec)
{
    const unsigned period = std::max(2u, model.resonantPeriodCycles());
    const size_t len = 80 * period;
    std::vector<std::vector<double>> scenarios;

    auto square = [&](double periodScale) {
        const auto half = static_cast<size_t>(
            std::max(1.0, periodScale * period / 2.0));
        return linsys::resonantSquareWave(len, half, spec.iMin,
                                          spec.iMax);
    };
    // On-resonance and detuned square waves.
    scenarios.push_back(square(1.0));
    scenarios.push_back(square(0.85));
    scenarios.push_back(square(1.15));

    // Exact open-loop bang-bang worst inputs (dip-seeking and
    // peak-seeking).
    const auto h = pdn::impulseResponse(model);
    const auto wc = linsys::bangBangWorstCase(h, spec.iMin, spec.iMax);
    scenarios.push_back(wc.minInput);
    scenarios.push_back(wc.maxInput);

    // Step attacks: lull then sustained spike, and the reverse.
    {
        std::vector<double> s(len, spec.iMax);
        std::fill(s.begin(), s.begin() + 4 * period, spec.iMin);
        scenarios.push_back(std::move(s));
    }
    {
        std::vector<double> s(len, spec.iMin);
        std::fill(s.begin(), s.begin() + 4 * period, spec.iMax);
        scenarios.push_back(std::move(s));
    }
    return scenarios;
}

/**
 * Simulate one adversarial scenario with the ideal-actuator threshold
 * controller in the loop. Sensor readings are delayed by
 * spec.delayCycles and adversarially biased by the sensor error
 * (+error when checking the low threshold — delaying the trigger —
 * and -error for the high threshold).
 *
 * @p sim is constructed once per solve and passed in — the solver's
 * bisection probes this function hundreds of times, and re-trimming
 * resets the state to the same DC operating point a fresh PdnSim
 * would start from, so results are identical.
 */
void
runScenario(PdnSim &sim, const ThresholdSpec &spec,
            const std::vector<double> &demand, double vLow, double vHigh,
            double &vMin, double &vMax)
{
    const double iGate = spec.iGate >= 0.0 ? spec.iGate : spec.iMin;
    const double iPhantom =
        spec.iPhantom >= 0.0 ? spec.iPhantom : spec.iMax;
    const double iTrim = spec.iTrim >= 0.0 ? spec.iTrim : iGate;

    sim.trimToCurrent(iTrim);

    const unsigned d = spec.delayCycles;
    std::vector<double> delayLine(d + 1, spec.vNominal);
    size_t head = 0;

    for (double adversary : demand) {
        // Reading seen this cycle (d cycles old).
        const double reading = delayLine[head];

        double amps = adversary;
        if (reading + spec.sensorError < vLow)
            amps = iGate;      // gate everything
        else if (reading - spec.sensorError > vHigh)
            amps = iPhantom;   // phantom-fire everything

        const double v = sim.step(amps);
        vMin = std::min(vMin, v);
        vMax = std::max(vMax, v);

        delayLine[head] = v;
        head = head + 1 == delayLine.size() ? 0 : head + 1;
    }
}

/** Resolved regulator trim current (the default chain of the spec). */
double
trimCurrent(const ThresholdSpec &spec)
{
    const double iGate = spec.iGate >= 0.0 ? spec.iGate : spec.iMin;
    return spec.iTrim >= 0.0 ? spec.iTrim : iGate;
}

/**
 * Run *all* adversarial scenarios at once, one backend lane each, with
 * the same per-lane controller logic as runScenario. Each lane's
 * controller picks its draw from its own delayed reading, so the lanes
 * step one cycle at a time through stepPerLane. Scenarios have
 * unequal lengths; a finished lane keeps stepping at the trim current
 * with its output ignored, so it cannot influence vMin/vMax. Because
 * each lane's per-cycle arithmetic matches PdnSim::step exactly and
 * min/max merging is order-independent, the result is bit-identical to
 * looping runScenario over the suite (tests/test_backend_diff.cpp).
 */
void
runScenariosBatched(pdn::PdnBackend &backend, const ThresholdSpec &spec,
                    const std::vector<std::vector<double>> &scenarios,
                    double vLow, double vHigh, double &vMin, double &vMax)
{
    const double iGate = spec.iGate >= 0.0 ? spec.iGate : spec.iMin;
    const double iPhantom =
        spec.iPhantom >= 0.0 ? spec.iPhantom : spec.iMax;
    const double iTrim = trimCurrent(spec);

    backend.reset();

    const size_t k = scenarios.size();
    const unsigned d = spec.delayCycles;
    std::vector<double> delay(k * (d + 1), spec.vNominal);
    std::vector<size_t> head(k, 0);
    std::vector<double> amps(k, iTrim);
    std::vector<double> volts(k, 0.0);

    size_t maxLen = 0;
    for (const auto &s : scenarios)
        maxLen = std::max(maxLen, s.size());

    for (size_t t = 0; t < maxLen; ++t) {
        for (size_t lane = 0; lane < k; ++lane) {
            if (t >= scenarios[lane].size()) {
                amps[lane] = iTrim;
                continue;
            }
            const double reading = delay[lane * (d + 1) + head[lane]];
            double a = scenarios[lane][t];
            if (reading + spec.sensorError < vLow)
                a = iGate;
            else if (reading - spec.sensorError > vHigh)
                a = iPhantom;
            amps[lane] = a;
        }

        backend.stepPerLane(amps.data(), 1, volts.data());

        for (size_t lane = 0; lane < k; ++lane) {
            if (t >= scenarios[lane].size())
                continue;
            const double v = volts[lane];
            vMin = std::min(vMin, v);
            vMax = std::max(vMax, v);
            delay[lane * (d + 1) + head[lane]] = v;
            head[lane] = head[lane] + 1 == d + 1 ? 0 : head[lane] + 1;
        }
    }
}

/** Backend with one lane per scenario (Batched engine only). */
std::unique_ptr<pdn::PdnBackend>
makeScenarioBackend(const PackageModel &model, const ThresholdSpec &spec,
                    size_t scenarioCount)
{
    if (spec.engine != pdn::BackendKind::Batched)
        return nullptr;
    const std::vector<pdn::LaneConfig> lanes(
        scenarioCount,
        pdn::LaneConfig{model.params(), trimCurrent(spec)});
    return pdn::makeBatchedBackend(lanes);
}

} // namespace

void
closedLoopExtremes(const ThresholdSpec &spec, double vLow, double vHigh,
                   double &vMinOut, double &vMaxOut)
{
    const PackageModel model = PackageModel::design(
        spec.f0Hz, spec.zPeakOhms, spec.rDc, spec.rDamp, spec.clockHz,
        spec.vNominal);
    const auto scenarios = buildScenarios(model, spec);
    vMinOut = spec.vNominal;
    vMaxOut = spec.vNominal;
    if (auto backend = makeScenarioBackend(model, spec, scenarios.size())) {
        runScenariosBatched(*backend, spec, scenarios, vLow, vHigh,
                            vMinOut, vMaxOut);
        return;
    }
    PdnSim sim(model);
    for (const auto &s : scenarios)
        runScenario(sim, spec, s, vLow, vHigh, vMinOut, vMaxOut);
}

Thresholds
solveThresholds(const ThresholdSpec &spec)
{
    // The scenarios size delay lines as d + 1 (per lane, too), which
    // an unbounded delay wraps; NaN passes the `<`-style rules below.
    VGUARD_CHECK(spec.delayCycles <= kMaxSensorDelayCycles);
    VGUARD_CHECK(std::isfinite(spec.sensorError) &&
                 spec.sensorError >= 0.0);
    VGUARD_CHECK(std::isfinite(spec.guardBandV) &&
                 spec.guardBandV >= 0.0);
    VGUARD_CHECK(std::isfinite(spec.band) && spec.band >= 0.0);
    VGUARD_CHECK(std::isfinite(spec.iMin) && std::isfinite(spec.iMax) &&
                 std::isfinite(spec.iGate) &&
                 std::isfinite(spec.iPhantom) &&
                 std::isfinite(spec.iTrim));
    if (!(spec.iMax > spec.iMin))
        fatal("solveThresholds: need iMax > iMin");
    if (spec.zPeakOhms <= spec.rDc)
        fatal("solveThresholds: peak impedance must exceed DC "
              "resistance");

    const PackageModel model = PackageModel::design(
        spec.f0Hz, spec.zPeakOhms, spec.rDc, spec.rDamp, spec.clockHz,
        spec.vNominal);
    const auto scenarios = buildScenarios(model, spec);
    // One simulator (or batched backend) serves every probe:
    // runScenario re-trims / runScenariosBatched resets — a full state
    // reset to the same DC point — and the solver makes ~600 probes.
    PdnSim sim(model);
    auto backend = makeScenarioBackend(model, spec, scenarios.size());

    const double vFloor =
        spec.vNominal * (1.0 - spec.band) + spec.guardBandV;
    const double vCeil =
        spec.vNominal * (1.0 + spec.band) - spec.guardBandV;

    auto evalAll = [&](double vLow, double vHigh, double &vMin,
                       double &vMax) {
        // Probe count and lane count are pure functions of the spec,
        // so these spans are canonical (Det) — they nest under the
        // enclosing solver.solve root.
        obs::TraceSpan probe("solver.probe");
        probe.arg("lanes", uint64_t{scenarios.size()});
        vMin = spec.vNominal;
        vMax = spec.vNominal;
        if (backend) {
            runScenariosBatched(*backend, spec, scenarios, vLow, vHigh,
                                vMin, vMax);
            return;
        }
        for (const auto &s : scenarios)
            runScenario(sim, spec, s, vLow, vHigh, vMin, vMax);
    };
    auto lowSafe = [&](double vLow, double vHigh) {
        double vMin, vMax;
        evalAll(vLow, vHigh, vMin, vMax);
        return vMin >= vFloor;
    };
    auto highSafe = [&](double vLow, double vHigh) {
        double vMin, vMax;
        evalAll(vLow, vHigh, vMin, vMax);
        return vMax <= vCeil;
    };

    Thresholds out;

    // ---- low threshold: bisect the smallest safe margin -----------
    {
        double lo = vFloor;               // most permissive candidate
        double hi = spec.vNominal - 1e-6; // most conservative
        if (lowSafe(lo, 1e9)) {
            out.vLow = lo;
            out.feasibleLow = true;
        } else if (!lowSafe(hi, 1e9)) {
            out.feasibleLow = false;
            out.vLow = hi;
        } else {
            for (int i = 0; i < 40; ++i) {
                const double mid = 0.5 * (lo + hi);
                if (lowSafe(mid, 1e9))
                    hi = mid;
                else
                    lo = mid;
            }
            out.vLow = hi;
            out.feasibleLow = true;
        }
    }

    // ---- high threshold (with the solved low threshold active) ----
    {
        double hi = vCeil;                // most permissive
        double lo = spec.vNominal + 1e-6; // most conservative
        const double vLowActive =
            out.feasibleLow ? out.vLow : spec.vNominal - 1e-6;
        if (highSafe(vLowActive, hi)) {
            out.vHigh = hi;
            out.feasibleHigh = true;
        } else if (!highSafe(vLowActive, lo)) {
            out.feasibleHigh = false;
            out.vHigh = lo;
        } else {
            for (int i = 0; i < 40; ++i) {
                const double mid = 0.5 * (lo + hi);
                if (highSafe(vLowActive, mid))
                    lo = mid;
                else
                    hi = mid;
            }
            out.vHigh = lo;
            out.feasibleHigh = true;
        }
    }

    // ---- joint verification ----------------------------------------
    // The low threshold was solved without high-side control, but the
    // deployed controller phantom-fires at iPhantom (beyond any
    // program's reach), which changes the reachable trajectories.
    // Verify the pair together and tighten whichever side the coupled
    // dynamics still violate.
    if (out.feasibleLow && out.feasibleHigh) {
        for (int iter = 0; iter < 16; ++iter) {
            double vMin, vMax;
            evalAll(out.vLow, out.vHigh, vMin, vMax);
            const double lowViolation = vFloor - vMin;
            const double highViolation = vMax - vCeil;
            if (lowViolation <= 0.0 && highViolation <= 0.0)
                break;
            if (lowViolation > 0.0)
                out.vLow = std::min(out.vLow + lowViolation + 1e-5,
                                    spec.vNominal - 1e-6);
            if (highViolation > 0.0)
                out.vHigh = std::max(out.vHigh - highViolation - 1e-5,
                                     spec.vNominal + 1e-6);
        }
    }
    return out;
}

} // namespace vguard::core
