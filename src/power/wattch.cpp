#include "power/wattch.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace vguard::power {

using cpu::ActivityVector;

const char *
unitName(Unit u)
{
    switch (u) {
      case Unit::Fetch:      return "fetch";
      case Unit::Bpred:      return "bpred";
      case Unit::Dispatch:   return "dispatch";
      case Unit::Window:     return "window";
      case Unit::Lsq:        return "lsq";
      case Unit::RegFile:    return "regfile";
      case Unit::IntAlu:     return "intalu";
      case Unit::IntMultDiv: return "intmultdiv";
      case Unit::FpAlu:      return "fpalu";
      case Unit::FpMultDiv:  return "fpmultdiv";
      case Unit::Dl1:        return "dl1";
      case Unit::L2:         return "l2";
      case Unit::ResultBus:  return "resultbus";
      case Unit::Clock:      return "clock";
      default:               return "???";
    }
}

namespace {

/** Does unit @p u belong to the actuator's FU gating group? */
constexpr bool
isFuUnit(Unit u)
{
    return u == Unit::IntAlu || u == Unit::IntMultDiv ||
           u == Unit::FpAlu || u == Unit::FpMultDiv;
}

} // namespace

WattchModel::WattchModel(const PowerConfig &pcfg,
                         const cpu::CpuConfig &ccfg)
    : pcfg_(pcfg), ccfg_(ccfg)
{
    // NaN passes the range rules below and would only surface as NaN
    // currents, so every field must be finite first.
    VGUARD_CHECK(std::isfinite(pcfg_.vdd));
    for (double p : pcfg_.pMax)
        VGUARD_CHECK(std::isfinite(p));
    VGUARD_CHECK(std::isfinite(pcfg_.idleFrac) &&
                 std::isfinite(pcfg_.idleFracL2) &&
                 std::isfinite(pcfg_.gatedFrac) &&
                 std::isfinite(pcfg_.clockFixedFrac));
    VGUARD_CHECK(std::isfinite(pcfg_.sBase) &&
                 std::isfinite(pcfg_.sRange));
    if (pcfg_.vdd <= 0.0)
        fatal("WattchModel: vdd must be positive");
    for (double p : pcfg_.pMax)
        if (p < 0.0)
            fatal("WattchModel: negative unit power");

    // Build the flat per-unit tables once so power() is a sweep over
    // parallel arrays instead of per-unit branching.
    for (size_t u = 0; u < kNumUnits; ++u)
        idleFrac_[u] = static_cast<Unit>(u) == Unit::L2
                           ? pcfg_.idleFracL2
                           : pcfg_.idleFrac;

    // Clock tree: a fixed trunk plus load proportional to the ungated
    // (or phantom-fired) share of total unit power. Only three unit
    // groups can gate (fetch, FUs, DL1), so the whole per-cycle loop
    // collapses to 8 precomputed values — built with the exact
    // summation order of the per-unit loop, keeping every result
    // bit-identical to the unbatched model.
    for (unsigned mask = 0; mask < 8; ++mask) {
        const bool liveFetch = mask & 1u;
        const bool liveFu = mask & 2u;
        const bool liveDl1 = mask & 4u;
        double loadMax = 0.0, loadLive = 0.0;
        for (size_t u = 0; u + 1 < kNumUnits; ++u) {
            const double pm = pcfg_.pMax[u];
            loadMax += pm;
            const Unit uu = static_cast<Unit>(u);
            bool live = true;
            if (uu == Unit::Fetch)
                live = liveFetch;
            else if (uu == Unit::Dl1)
                live = liveDl1;
            else if (isFuUnit(uu))
                live = liveFu;
            if (live)
                loadLive += pm;
        }
        const double ungatedFrac =
            loadMax > 0.0 ? loadLive / loadMax : 1.0;
        clockPower_[mask] =
            pcfg_.pMax[static_cast<size_t>(Unit::Clock)] *
            (pcfg_.clockFixedFrac +
             (1.0 - pcfg_.clockFixedFrac) * ungatedFrac);
    }
}

double
WattchModel::power(const ActivityVector &av)
{
    const auto &g = av.gates;
    const auto &ph = av.phantom;

    const double sw =
        std::clamp(pcfg_.sBase + pcfg_.sRange * av.issueActivity, 0.0,
                   1.0);

    auto frac = [](uint32_t n, unsigned d) {
        return d ? static_cast<double>(n) / d : 0.0;
    };

    // SoA pass 1: per-unit utilisation and gate/phantom flags into
    // flat arrays (the expressions match the unbatched model term for
    // term; only the layout changed).
    double act[kNumUnits];
    bool gated[kNumUnits];
    bool phantom[kNumUnits];
    for (size_t u = 0; u < kNumUnits; ++u) {
        gated[u] = false;
        phantom[u] = false;
    }
    gated[static_cast<size_t>(Unit::Fetch)] = g.il1;
    phantom[static_cast<size_t>(Unit::Fetch)] = ph.il1;
    gated[static_cast<size_t>(Unit::Dl1)] = g.dl1;
    phantom[static_cast<size_t>(Unit::Dl1)] = ph.dl1;
    for (size_t u = 0; u < kNumUnits; ++u) {
        if (isFuUnit(static_cast<Unit>(u))) {
            gated[u] = g.fu;
            phantom[u] = ph.fu;
        }
    }

    act[static_cast<size_t>(Unit::Fetch)] =
        frac(av.fetched, ccfg_.fetchWidth);
    act[static_cast<size_t>(Unit::Bpred)] =
        frac(av.bpredLookups, ccfg_.fetchWidth);
    act[static_cast<size_t>(Unit::Dispatch)] =
        frac(av.dispatched, ccfg_.decodeWidth);
    act[static_cast<size_t>(Unit::Window)] =
        0.5 * frac(av.dispatched + av.writebacks, 2 * ccfg_.decodeWidth) +
        0.5 * frac(av.ruuOccupancy, ccfg_.ruuSize);
    act[static_cast<size_t>(Unit::Lsq)] =
        0.5 * frac(av.memPortsUsed, ccfg_.numMemPorts) +
        0.5 * frac(av.lsqOccupancy, ccfg_.lsqSize);
    act[static_cast<size_t>(Unit::RegFile)] =
        frac(av.regReads + av.regWrites, 3 * ccfg_.issueWidth);
    act[static_cast<size_t>(Unit::IntAlu)] =
        frac(av.busyIntAlu, ccfg_.numIntAlu);
    act[static_cast<size_t>(Unit::IntMultDiv)] =
        frac(av.busyIntMultDiv, ccfg_.numIntMultDiv);
    act[static_cast<size_t>(Unit::FpAlu)] =
        frac(av.busyFpAlu, ccfg_.numFpAlu);
    act[static_cast<size_t>(Unit::FpMultDiv)] =
        frac(av.busyFpMultDiv, ccfg_.numFpMultDiv);
    act[static_cast<size_t>(Unit::Dl1)] =
        frac(av.dcacheAccesses, ccfg_.numMemPorts);
    act[static_cast<size_t>(Unit::L2)] =
        std::min<uint32_t>(av.l2Accesses, 1u);
    act[static_cast<size_t>(Unit::ResultBus)] =
        frac(av.writebacks, ccfg_.issueWidth);
    act[static_cast<size_t>(Unit::Clock)] = 0.0;

    // SoA pass 2: per-unit powers from the flat tables. Same formula
    // as Wattch cc3: Pmax (phantom), Pmax*gatedFrac (gated), else
    // Pmax*(idle + (1-idle)*a*s).
    auto &p = last_;
    const double *pmax = pcfg_.pMax.data();
    for (size_t u = 0; u + 1 < kNumUnits; ++u) {
        double pu;
        if (phantom[u]) {
            pu = pmax[u]; // fired at full tilt for voltage control
        } else if (gated[u]) {
            pu = pmax[u] * pcfg_.gatedFrac;
        } else {
            const double a = std::clamp(act[u], 0.0, 1.0);
            pu = pmax[u] * (idleFrac_[u] + (1.0 - idleFrac_[u]) * a * sw);
        }
        p[u] = pu;
    }

    const unsigned liveMask = (!g.il1 || ph.il1 ? 1u : 0u) |
                              (!g.fu || ph.fu ? 2u : 0u) |
                              (!g.dl1 || ph.dl1 ? 4u : 0u);
    p[static_cast<size_t>(Unit::Clock)] = clockPower_[liveMask];

    double total = 0.0;
    for (size_t u = 0; u < kNumUnits; ++u) {
        total += p[u];
        wattCycles_[u] += p[u];
    }
    return total;
}

// vlint: hot
void
WattchModel::currentBlock(const cpu::ActivityVector *avs, size_t n,
                          double *amps)
{
    for (size_t k = 0; k < n; ++k)
        amps[k] = power(avs[k]) / pcfg_.vdd;
}

double
WattchModel::minPower() const
{
    ActivityVector av;
    av.gates = {true, true, true};
    av.phantom = {};
    WattchModel scratch(*this);
    return scratch.power(av);
}

double
WattchModel::idlePower() const
{
    WattchModel scratch(*this);
    return scratch.power(ActivityVector{});
}

double
WattchModel::maxPower() const
{
    ActivityVector av;
    av.gates = {};
    av.phantom = {true, true, true};
    av.issueActivity = 1.0f;
    // Saturate every non-controllable structure too.
    av.fetched = ccfg_.fetchWidth;
    av.bpredLookups = ccfg_.fetchWidth;
    av.dispatched = ccfg_.decodeWidth;
    av.writebacks = ccfg_.issueWidth;
    av.ruuOccupancy = ccfg_.ruuSize;
    av.lsqOccupancy = ccfg_.lsqSize;
    av.memPortsUsed = ccfg_.numMemPorts;
    av.regReads = 2 * ccfg_.issueWidth;
    av.regWrites = ccfg_.issueWidth;
    av.dcacheAccesses = ccfg_.numMemPorts;
    av.l2Accesses = 1;
    av.busyIntAlu = ccfg_.numIntAlu;
    av.busyIntMultDiv = ccfg_.numIntMultDiv;
    av.busyFpAlu = ccfg_.numFpAlu;
    av.busyFpMultDiv = ccfg_.numFpMultDiv;
    WattchModel scratch(*this);
    return scratch.power(av);
}

} // namespace vguard::power
