/**
 * @file
 * Figure 11: a threshold controller in action — cycle-level trace of
 * die voltage with the controller intervening as the stressmark drives
 * the supply toward an emergency.
 *
 * Expected shape: voltage falls rapidly during a burst, crosses the
 * low threshold, the actuator gates the controlled units (trace shows
 * a gating episode), and voltage recovers without ever crossing the
 * 0.95 V emergency line.
 */

#include <cstdio>

#include "core/experiments.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;

int
main()
{
    std::printf("== Figure 11: threshold controller in action ==\n\n");

    const auto &cal = referenceStressmark();

    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.delayCycles = 1;
    rs.actuator = ActuatorKind::FuDl1Il1;
    const auto &th = referenceThresholds(2.0, 1);
    std::printf("thresholds: vLow=%.4f, vHigh=%.4f (1-cycle sensor "
                "delay)\n\n",
                th.vLow, th.vHigh);

    VoltageSim sim(makeSimConfig(rs),
                   workloads::StressmarkBuilder::build(cal.params));

    // Warm past the cold start, then find a gating episode.
    for (int i = 0; i < 30000; ++i)
        sim.step();

    // Collect a window around the next controller intervention.
    std::printf("%-8s %-9s %-9s %-7s  %s\n", "cycle", "I (A)", "V (V)",
                "state", "voltage (0.94 .. 1.02)");
    int shown = 0;
    bool armed = false;
    for (int i = 0; i < 200000 && shown < 90; ++i) {
        const auto s = sim.step();
        if (!armed && s.gated)
            armed = true; // start printing just before an episode
        if (armed) {
            const int pos = std::max(
                0, std::min(59, static_cast<int>((s.volts - 0.94) /
                                                 0.08 * 60.0)));
            std::string bar(61, ' ');
            bar[static_cast<int>((th.vLow - 0.94) / 0.08 * 60.0)] = ':';
            bar[static_cast<int>((0.95 - 0.94) / 0.08 * 60.0)] = '!';
            bar[pos] = '*';
            std::printf("%-8llu %-9.2f %-9.4f %-7s %s\n",
                        static_cast<unsigned long long>(s.cycle), s.amps,
                        s.volts,
                        s.gated ? "GATED"
                                : (s.phantom ? "PHANTOM" : ""),
                        bar.c_str());
            ++shown;
        }
    }
    std::printf("\nlegend: '!' = 0.95 V emergency line, ':' = vLow "
                "threshold, '*' = die voltage\n");
    return 0;
}
