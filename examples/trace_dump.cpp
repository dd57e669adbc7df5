/**
 * @file
 * Trace dump: run any bundled workload under the coupled simulation
 * and write a plot-ready CSV of (cycle, current, voltage, controller
 * state) — the raw data behind the paper's waveform figures.
 *
 * Usage: trace_dump [workload] [cycles] [out.csv]
 *   workload: stressmark | virus | wakeup | phased | any SPEC name
 *             (default: stressmark)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/experiments.hpp"
#include "core/trace.hpp"
#include "workloads/kernels.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;

namespace {

isa::Program
pickWorkload(const char *name)
{
    if (std::strcmp(name, "stressmark") == 0) {
        return workloads::StressmarkBuilder::build(
            referenceStressmark().params);
    }
    if (std::strcmp(name, "virus") == 0)
        return workloads::powerVirus();
    if (std::strcmp(name, "wakeup") == 0)
        return workloads::wakeupKernel();
    if (std::strcmp(name, "phased") == 0)
        return workloads::phasedKernel(40);
    return workloads::buildSpecProxy(name); // fatal() if unknown
}

} // namespace

int
main(int argc, char **argv)
{
    const char *workload = argc > 1 ? argv[1] : "stressmark";
    const uint64_t cycles =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 50000;
    const char *out = argc > 3 ? argv[3] : "vguard_trace.csv";

    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.delayCycles = 1;
    rs.actuator = ActuatorKind::FuDl1Il1;
    VoltageSim sim(makeSimConfig(rs), pickWorkload(workload));

    TraceRecorder rec(cycles);
    rec.capture(sim, cycles);
    rec.writeCsv(out);

    const auto s = rec.summary();
    std::printf("wrote %zu samples of '%s' to %s\n", rec.size(),
                workload, out);
    std::printf("V in [%.4f, %.4f]; mean %.1f A (peak %.1f A); gated "
                "%llu cycles, phantom %llu cycles\n",
                s.minV, s.maxV, s.meanAmps, s.peakAmps,
                static_cast<unsigned long long>(s.gatedCycles),
                static_cast<unsigned long long>(s.phantomCycles));
    std::printf("plot with e.g.: python3 -c \"import pandas as pd, "
                "matplotlib.pyplot as plt; d=pd.read_csv('%s'); "
                "d.plot(x='cycle', y=['volts']); plt.show()\"\n",
                out);
    return 0;
}
