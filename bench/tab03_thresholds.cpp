/**
 * @file
 * Table 3: voltage thresholds under sensor delay for the 200 %
 * impedance package, solved by the control-theoretic threshold solver
 * (the paper's Simulink flow, Figs. 12-13).
 *
 * Expected shape: as sensor delay grows 0 -> 6 cycles, the low
 * threshold rises, and the safe operating window (vHigh - vLow)
 * shrinks monotonically (paper: 94 mV at delay 0 down to 41 mV at 6).
 *
 * Each (impedance, delay) threshold solve is independent (~50 ms), so
 * the campaign engine's parallel-for warms the shared thread-safe
 * cache before the table is printed serially. Usage:
 *   tab03_thresholds [--threads N] [--trace FILE]
 *                    [--trace-canonical FILE]
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "util/table.hpp"

using namespace vguard;
using namespace vguard::core;

int
main(int argc, char **argv)
{
    const CampaignCli cli = parseCampaignCli(argc, argv, kTraceOutput);
    std::printf("== Table 3: thresholds vs sensor delay (200%% "
                "impedance) ==\n\n");

    // Every (scale, delay) point the tables below read, solved in
    // parallel into the shared cache.
    std::vector<std::pair<double, unsigned>> points;
    for (unsigned d = 0; d <= 6; ++d)
        points.emplace_back(2.0, d);
    for (const double s : {1.25, 1.5, 2.5, 3.0, 4.0})
        points.emplace_back(s, 2);

    const CampaignEngine engine(cli.options);
    engine.forEach(points.size(), [&](size_t i) {
        referenceThresholds(points[i].first, points[i].second);
    });

    Table t({"Delay (cycles)", "Low Threshold (V)",
             "High Threshold (V)", "Safe Window (mV)"});
    double prevWindow = 1e9;
    bool monotone = true;
    for (unsigned d = 0; d <= 6; ++d) {
        const auto &th = referenceThresholds(2.0, d);
        t.addRow({std::to_string(d), Table::fmt(th.vLow, 5),
                  Table::fmt(th.vHigh, 5),
                  Table::fmt(th.safeWindowV() * 1e3, 4)});
        monotone &= th.safeWindowV() <= prevWindow + 1e-9;
        prevWindow = th.safeWindowV();
    }
    std::printf("%s\n", t.ascii().c_str());
    std::printf("safe window shrinks monotonically with delay: %s "
                "(paper Table 3 shape)\n",
                monotone ? "yes" : "NO");

    // Also show how impedance scaling moves the whole schedule. Each
    // solve probes all adversarial scenarios through the lane-batched
    // backend, which keeps this denser leg cheap.
    std::printf("\nlow threshold at delay 2 vs package impedance:\n");
    for (double s : {1.25, 1.5, 2.0, 2.5, 3.0, 4.0}) {
        const auto &th = referenceThresholds(s, 2);
        std::printf("  %3.0f%%: vLow=%.4f vHigh=%.4f window=%.1f mV\n",
                    100.0 * s, th.vLow, th.vHigh,
                    th.safeWindowV() * 1e3);
    }
    std::printf("\n%zu threshold solves on %u threads\n", points.size(),
                engine.threads());
    writeCampaignTrace(cli);
    return 0;
}
