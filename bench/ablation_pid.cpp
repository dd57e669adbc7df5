/**
 * @file
 * Ablation (paper Section 6): threshold control vs a digital P-I-D
 * controller for dI/dt.
 *
 * The paper argues P-I-D is a poor fit because it (a) needs a real
 * (digitised) voltage reading instead of a 3-level comparator and
 * (b) pays extra cycles for its multiply-accumulate arithmetic, in a
 * problem where "very short turnaround times are crucial". This bench
 * quantifies that: both controllers run the stressmark on the 200 %
 * package across sensor delays; the PID additionally pays its
 * documented compute latency.
 *
 * Expected shape: the threshold controller holds zero emergencies at
 * every delay; the PID — even when its gains are usable — leaves
 * residual emergencies and/or costs more as its total loop delay
 * grows.
 */

#include <cstdio>

#include "core/experiments.hpp"
#include "core/pid_controller.hpp"
#include "util/table.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;

namespace {

struct PidOutcome
{
    RailTally rail;
    double ipc = 0.0;
    uint64_t gated = 0;
    uint64_t throttled = 0;
};

PidOutcome
runPid(const isa::Program &prog, unsigned sensorDelay,
       unsigned computeDelay, uint64_t cycles)
{
    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.controllerEnabled = false; // we drive the loop ourselves
    VoltageSim sim(makeSimConfig(rs), prog);

    PidConfig pc;
    pc.sensorDelay = sensorDelay;
    pc.computeDelay = computeDelay;
    PidController pid(pc, referenceMachine().cpu.issueWidth);

    PidOutcome out;
    out.rail = sim.config().railTally();
    for (uint64_t i = 0; i < cycles && !sim.halted(); ++i) {
        const auto s = sim.step();
        pid.step(s.volts, sim.core());
        out.rail.add(s.volts);
    }
    out.ipc = static_cast<double>(sim.core().stats().committed) /
              static_cast<double>(sim.core().stats().cycles);
    out.gated = pid.gatedCycles();
    out.throttled = pid.throttledCycles();
    return out;
}

} // namespace

int
main()
{
    std::printf("== Ablation: threshold control vs digital P-I-D "
                "(stressmark, 200%%) ==\n\n");

    const uint64_t cycles = cycleBudget(60000);
    const auto &cal = referenceStressmark();
    const auto prog = workloads::StressmarkBuilder::build(cal.params);

    Table t({"sensor delay", "threshold: emerg", "threshold: IPC",
             "PID(+2cyc): emerg", "PID: min V", "PID: IPC",
             "PID: throttled cyc"});

    for (unsigned d = 0; d <= 4; ++d) {
        RunSpec rs;
        rs.impedanceScale = 2.0;
        rs.delayCycles = d;
        rs.maxCycles = cycles;
        const auto th = runWorkload(prog, rs);

        // The PID pays 2 extra cycles for its arithmetic (Section 6).
        const auto pid = runPid(prog, d, 2, cycles);

        t.addRow({std::to_string(d),
                  std::to_string(th.emergencyCycles()),
                  Table::fmt(th.ipc, 3),
                  std::to_string(pid.rail.emergencyCycles()),
                  Table::fmt(pid.rail.minV, 5), Table::fmt(pid.ipc, 3),
                  std::to_string(pid.throttled)});
    }
    std::printf("%s\n", t.ascii().c_str());

    // And with the compute latency hypothetically removed, to isolate
    // the algorithmic difference from the latency penalty.
    std::printf("PID with zero compute latency (hypothetical):\n");
    for (unsigned d : {0u, 2u, 4u}) {
        const auto pid = runPid(prog, d, 0, cycles);
        std::printf("  delay %u: %llu emergencies, min V %.4f, IPC "
                    "%.3f\n",
                    d,
                    static_cast<unsigned long long>(
                        pid.rail.emergencyCycles()),
                    pid.rail.minV, pid.ipc);
    }
    std::printf("\nobserved shape: with carefully hand-tuned gains and "
                "a setpoint offset below nominal, the PID also protects "
                "this workload — but its margin (min V) erodes as the "
                "loop delay grows, it required a full digitised reading "
                "and gain/setpoint tuning (naive gains referenced at "
                "1.0 V sit in permanent integral windup), and unlike "
                "the threshold scheme it comes with no control-"
                "theoretic worst-case guarantee. That is the paper's "
                "Section 6 argument made quantitative.\n");
    return 0;
}
