/**
 * @file
 * google-benchmark microbenchmarks of the simulation kernels: PDN
 * state-space stepping, impulse-response convolution, the cycle core,
 * the coupled voltage simulation, and the threshold solver.
 */

#include <benchmark/benchmark.h>

#include "core/experiments.hpp"
#include "core/threshold_solver.hpp"
#include "cpu/core.hpp"
#include "obs/tracing.hpp"
#include "pdn/impulse.hpp"
#include "pdn/pdn_sim.hpp"
#include "power/wattch.hpp"
#include "workloads/kernels.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;

static void
BM_PdnStep(benchmark::State &state)
{
    pdn::PdnSim sim(pdn::PackageModel(referencePackage(2.0)));
    sim.trimToCurrent(10.0);
    double amps = 10.0;
    for (auto _ : state) {
        amps = amps < 40.0 ? amps + 1.0 : 10.0;
        benchmark::DoNotOptimize(sim.step(amps));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PdnStep);

static void
BM_Convolver(benchmark::State &state)
{
    const auto pkg = pdn::PackageModel(referencePackage(2.0));
    pdn::Convolver conv(pdn::impulseResponse(pkg), 1.0, 10.0);
    double amps = 10.0;
    for (auto _ : state) {
        amps = amps < 40.0 ? amps + 1.0 : 10.0;
        benchmark::DoNotOptimize(conv.step(amps));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["taps"] = static_cast<double>(conv.taps());
}
BENCHMARK(BM_Convolver);

static void
BM_CoreCycle(benchmark::State &state)
{
    cpu::OoOCore core(cpu::CpuConfig{}, workloads::busyKernel());
    for (auto _ : state)
        benchmark::DoNotOptimize(&core.cycle());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreCycle);

static void
BM_CoreCycleSpecProxy(benchmark::State &state)
{
    cpu::OoOCore core(cpu::CpuConfig{},
                      workloads::buildSpecProxy("gcc"));
    for (auto _ : state)
        benchmark::DoNotOptimize(&core.cycle());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreCycleSpecProxy);

/** The workload stressmark calibration runs: the RUU fills up behind
    the divide chain, so the window is full while few entries are
    Ready. */
static void
BM_CoreCycleStressmark(benchmark::State &state)
{
    const cpu::CpuConfig cfg = referenceMachine().cpu;
    cpu::OoOCore core(cfg, workloads::StressmarkBuilder::build(
                               referenceStressmark().params));
    for (auto _ : state)
        benchmark::DoNotOptimize(&core.cycle());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoreCycleStressmark);

static void
BM_PowerModel(benchmark::State &state)
{
    cpu::CpuConfig cfg;
    power::WattchModel pm(power::PowerConfig{}, cfg);
    cpu::ActivityVector av;
    av.fetched = 8;
    av.dispatched = 8;
    av.busyIntAlu = 6;
    av.dcacheAccesses = 3;
    av.writebacks = 7;
    av.ruuOccupancy = 180;
    for (auto _ : state)
        benchmark::DoNotOptimize(pm.power(av));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PowerModel);

static void
BM_CoupledVoltageSim(benchmark::State &state)
{
    VoltageSim sim(makeSimConfig(RunSpec{}), workloads::busyKernel());
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.step());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoupledVoltageSim);

/** Same coupled step with the tracer on, so the sim samples its
    phases — compare against BM_CoupledVoltageSim to check the <=5 %
    overhead budget. */
static void
BM_CoupledVoltageSimProfiled(benchmark::State &state)
{
    obs::Tracer::instance().enable();
    VoltageSim sim(makeSimConfig(RunSpec{}), workloads::busyKernel());
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.step());
    obs::Tracer::instance().disable();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CoupledVoltageSimProfiled);

static void
BM_ImpulseExtraction(benchmark::State &state)
{
    const auto pkg = pdn::PackageModel(referencePackage(2.0));
    for (auto _ : state)
        benchmark::DoNotOptimize(pdn::impulseResponse(pkg));
}
BENCHMARK(BM_ImpulseExtraction);

static void
BM_ThresholdSolve(benchmark::State &state)
{
    const auto &range = referenceCurrentRange();
    ThresholdSpec spec;
    spec.zPeakOhms = referenceTarget().zTargetOhms * 2.0;
    spec.iMin = range.progMin;
    spec.iMax = range.progMax;
    spec.iGate = range.gatedMin;
    spec.iPhantom = range.phantomMax;
    spec.iTrim = range.gatedMin;
    spec.delayCycles = static_cast<unsigned>(state.range(0));
    for (auto _ : state)
        benchmark::DoNotOptimize(solveThresholds(spec));
}
BENCHMARK(BM_ThresholdSolve)->Arg(0)->Arg(3)->Arg(6)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
