/**
 * @file
 * Layer probe of the traced run. Layers that run only inside VoltageSim
 * (the OoO core, Wattch, the PDN step) cannot be timed from outside a
 * whole run, so the probe drives each layer's public entry point
 * directly with the workload's own programs, captures and packages,
 * and spans every call with its work count.
 */

#include <algorithm>
#include <vector>

#include "core/experiments.hpp"
#include "core/multicore_sim.hpp"
#include "core/replay_sweep.hpp"
#include "cpu/core.hpp"
#include "pdn/pdn_backend.hpp"
#include "pdn/pdn_sim.hpp"
#include "perfbench.hpp"
#include "power/wattch.hpp"

namespace perfbench {

using namespace vguard;
using namespace vguard::core;

namespace {

/** Package of the single-run legs: the 200 % design every workload
    uses. */
constexpr double kRefScale = 2.0;

} // namespace

void
probeLayers(const ProbeInputs &in, Spans &spans, Outcome &out)
{
    RunSpec openRs;
    openRs.impedanceScale = kRefScale;
    openRs.controllerEnabled = false;
    const VoltageSimConfig openCfg = makeSimConfig(openRs);
    RunSpec closedRs = openRs;
    closedRs.controllerEnabled = true;
    closedRs.delayCycles = in.delayCycles;
    const Thresholds *th = nullptr;
    {
        Spans::Scope s(spans, "core.thresholds");
        th = &referenceThresholds(kRefScale, in.delayCycles);
    }
    const VoltageSimConfig closedCfg = makeSimConfig(closedRs);
    const double iGate =
        power::WattchModel(openCfg.power, openCfg.cpu).minCurrent();

    std::vector<CapturedTrace> traces;
    for (const isa::Program &prog : in.programs) {
        // VoltageSim: capture, replay of that capture, closed loop.
        CapturedTrace trace;
        {
            VoltageSim sim(openCfg, prog);
            Spans::Scope s(spans, "core.voltage_sim.capture");
            s.setWork(static_cast<double>(
                sim.run(in.cycles, ~0ull, &trace).cycles));
        }
        {
            VoltageSim sim(openCfg, prog);
            Spans::Scope s(spans, "core.voltage_sim.replay");
            s.setWork(static_cast<double>(sim.runReplay(trace).cycles));
        }
        {
            VoltageSim sim(closedCfg, prog);
            Spans::Scope s(spans, "core.voltage_sim.closed_loop");
            s.setWork(static_cast<double>(sim.run(in.cycles).cycles));
        }

        // The core alone, then Wattch over its activity vectors.
        std::vector<cpu::ActivityVector> avs;
        avs.reserve(in.cycles);
        {
            cpu::OoOCore core(openCfg.cpu, prog);
            Spans::Scope s(spans, "cpu.core");
            while (avs.size() < in.cycles && !core.halted())
                avs.push_back(core.cycle());
            s.setWork(static_cast<double>(avs.size()));
        }
        std::vector<double> amps(avs.size());
        {
            power::WattchModel wattch(openCfg.power, openCfg.cpu);
            Spans::Scope s(spans, "power.current_block",
                           static_cast<double>(avs.size()));
            wattch.currentBlock(avs.data(), avs.size(), amps.data());
        }
        traces.push_back(std::move(trace));
    }

    // PDN layers over the captured amps: one PdnSim per package, the
    // batched backend over all packages as lanes, and the sweep engine.
    std::vector<pdn::LaneConfig> laneCfgs;
    std::vector<SweepLane> sweepLanes;
    for (const pdn::PackageParams &p : in.lanes) {
        laneCfgs.push_back({p, iGate});
        sweepLanes.push_back({p, iGate, openCfg.band, openCfg.histLo,
                              openCfg.histHi, openCfg.histBins});
    }
    const size_t lanes = laneCfgs.size();
    const auto backend = pdn::makeBackend(pdn::BackendKind::Batched,
                                          laneCfgs);
    std::vector<double> volts;
    for (const CapturedTrace &t : traces) {
        const size_t n = t.cycles();
        volts.resize(n * lanes);
        for (const pdn::PackageParams &p : in.lanes) {
            pdn::PdnSim pdnSim{pdn::PackageModel(p)};
            pdnSim.trimToCurrent(iGate);
            Spans::Scope s(spans, "pdn.step_many", static_cast<double>(n));
            pdnSim.stepMany(t.ampsData(), n, volts.data());
        }
        backend->reset();
        {
            Spans::Scope s(spans, "pdn.backend.step_shared",
                           static_cast<double>(n * lanes));
            backend->stepShared(t.ampsData(), n, volts.data());
        }
        {
            Spans::Scope s(spans, "core.replay_sweep",
                           static_cast<double>(n * lanes));
            replaySweep(t.ampsData(), n, sweepLanes);
        }
    }

    // Per-lane currents: lane l replays capture (l mod programs),
    // cycle-major, over the shortest capture.
    size_t n = traces.front().cycles();
    for (const CapturedTrace &t : traces)
        n = std::min(n, t.cycles());
    std::vector<double> perLane(n * lanes);
    for (size_t k = 0; k < n; ++k)
        for (size_t l = 0; l < lanes; ++l)
            perLane[k * lanes + l] =
                traces[l % traces.size()].ampsData()[k];
    volts.resize(n * lanes);
    backend->reset();
    {
        Spans::Scope s(spans, "pdn.backend.step_per_lane",
                       static_cast<double>(n * lanes));
        backend->stepPerLane(perLane.data(), n, volts.data());
    }

    // Chips: each capture as a 1-core chip on the reference package,
    // open loop and under a per-core sensor plus the chip governor.
    std::vector<ChipSpec> open;
    for (const CapturedTrace &t : traces) {
        ChipSpec chip;
        chip.package = openCfg.package;
        chip.iTrim = iGate;
        chip.band = openCfg.band;
        chip.cores.push_back({&t, 0, iGate, 0.0});
        open.push_back(std::move(chip));
    }
    std::vector<ChipSpec> governed = open;
    for (ChipSpec &chip : governed) {
        SensorConfig sensor;
        sensor.vLow = th->vLow;
        sensor.vHigh = th->vHigh;
        sensor.delayCycles = in.delayCycles;
        sensor.vNominal = chip.package.vNominal;
        chip.sensor = sensor;
        chip.governor = ChipGovernorConfig{};
    }
    {
        Spans::Scope s(spans, "core.multicore.open",
                       static_cast<double>(open.size() * n));
        runChips(open, n);
    }
    std::vector<ChipResult> res;
    {
        Spans::Scope s(spans, "core.multicore.governed",
                       static_cast<double>(governed.size() * n));
        res = runChips(governed, n);
    }
    for (const ChipResult &r : res) {
        for (const CoreStats &c : r.cores)
            out.gateRequests += c.gateRequests;
        out.gateDenials += r.gateDenials;
    }
}

} // namespace perfbench
