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

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "core/experiments.hpp"
#include "core/trace_cache.hpp"
#include "util/logging.hpp"
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
    uint64_t cycles = 50000;
    if (argc > 2 &&
        (!parseUnsignedDecimal(argv[2], 19, cycles) || cycles == 0))
        fatal("trace_dump: expected a positive cycle count, got '%s'",
              argv[2]);
    const char *out = argc > 3 ? argv[3] : "vguard_trace.csv";

    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.delayCycles = 1;
    rs.actuator = ActuatorKind::FuDl1Il1;
    VoltageSim sim(makeSimConfig(rs), pickWorkload(workload));

    std::FILE *f = std::fopen(out, "w");
    if (!f)
        fatal("trace_dump: cannot open '%s' for writing", out);
    bool ok = std::fputs("cycle,amps,volts,gated,phantom\n", f) >= 0;
    uint64_t samples = 0, gated = 0, phantom = 0;
    double minV = 0.0, maxV = 0.0, peakAmps = 0.0, ampSum = 0.0;
    for (; samples < cycles && !sim.halted(); ++samples) {
        const TraceSample t = sim.step();
        ok &= std::fprintf(f, "%llu,%.4f,%.6f,%d,%d\n",
                           static_cast<unsigned long long>(t.cycle),
                           t.amps, t.volts, t.gated ? 1 : 0,
                           t.phantom ? 1 : 0) >= 0;
        minV = samples == 0 ? t.volts : std::min(minV, t.volts);
        maxV = samples == 0 ? t.volts : std::max(maxV, t.volts);
        peakAmps = std::max(peakAmps, t.amps);
        ampSum += t.amps;
        gated += t.gated;
        phantom += t.phantom;
    }
    ok &= std::fclose(f) == 0;
    if (!ok)
        fatal("trace_dump: short write to '%s'", out);
    const double meanAmps =
        samples > 0 ? ampSum / static_cast<double>(samples) : 0.0;

    std::printf("wrote %llu samples of '%s' to %s\n",
                static_cast<unsigned long long>(samples), workload, out);
    std::printf("V in [%.4f, %.4f]; mean %.1f A (peak %.1f A); gated "
                "%llu cycles, phantom %llu cycles\n",
                minV, maxV, meanAmps, peakAmps,
                static_cast<unsigned long long>(gated),
                static_cast<unsigned long long>(phantom));
    std::printf("plot with e.g.: python3 -c \"import pandas as pd, "
                "matplotlib.pyplot as plt; d=pd.read_csv('%s'); "
                "d.plot(x='cycle', y=['volts']); plt.show()\"\n",
                out);
    return 0;
}
