/**
 * @file
 * Figures 3-6: voltage responses to characteristic current shapes on
 * the 200 %-of-target package.
 *
 *  Fig. 3 — narrow (5-cycle) spike: voltage dips but recovers without
 *           crossing the minimum threshold;
 *  Fig. 4 — wide (10+-cycle) spike of the same magnitude: crosses it;
 *  Fig. 5 — notched wide spike: a mid-pulse current cut (the actuator
 *           intervening) keeps the voltage safe;
 *  Fig. 6 — pulse train at the resonant frequency: each successive
 *           pulse digs deeper (resonant build-up).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/experiments.hpp"
#include "linsys/signals.hpp"
#include "pdn/pdn_sim.hpp"

using namespace vguard;
using namespace vguard::core;

namespace {

struct Shape
{
    const char *figure;
    const char *what;
    std::vector<double> amps;
};

void
show(const Shape &shape, double vMinBound, double scale)
{
    pdn::PdnSim sim(pdn::PackageModel(referencePackage(scale)));
    const auto &range = referenceCurrentRange();
    sim.trimToCurrent(range.progMin);

    const auto vs = sim.run(shape.amps);
    const double vMin = *std::min_element(vs.begin(), vs.end());
    const double vMax = *std::max_element(vs.begin(), vs.end());

    std::printf("-- %s: %s\n", shape.figure, shape.what);
    std::printf("   min %.4f V, max %.4f V -> %s %.3f V threshold\n",
                vMin, vMax,
                vMin < vMinBound ? "CROSSES the" : "stays above the",
                vMinBound);
    // Compact trace: current and voltage every 3 cycles.
    std::printf("   cyc:");
    for (size_t t = 0; t < std::min<size_t>(vs.size(), 150); t += 6)
        std::printf("%6zu", t);
    std::printf("\n     I:");
    for (size_t t = 0; t < std::min<size_t>(vs.size(), 150); t += 6)
        std::printf("%6.1f", shape.amps[t]);
    std::printf("\n     V:");
    for (size_t t = 0; t < std::min<size_t>(vs.size(), 150); t += 6)
        std::printf("%6.3f", vs[t]);
    std::printf("\n\n");
}

} // namespace

int
main()
{
    std::printf("== Figures 3-6: pulse responses ==\n");
    std::printf("(Figs 3-5 use a modestly-regulated 400%% package, as "
                "in the paper's intuition plots; Fig 6 uses the "
                "standard 200%% package)\n\n");
    const auto &range = referenceCurrentRange();
    const double lo = range.progMin;
    const double hi = range.progMax;
    const auto pkg = pdn::PackageModel(referencePackage(2.0));
    const unsigned period = pkg.resonantPeriodCycles();
    // Figs 3-5 are drawn against the controller's low-voltage
    // threshold line (the paper's dashed "minimum voltage threshold");
    // Fig 6 against the hard 0.95 V emergency bound.
    const double vThreshold = 0.96;
    const double vMinBound = 0.95;

    // Fig. 3: narrow spike (5 cycles).
    show({"Figure 3", "narrow 5-cycle current spike",
          linsys::pulseSignal(150, lo, hi, 9, 5)},
         vThreshold, 4.0);

    // Fig. 4: wide spike (half the resonant period).
    show({"Figure 4", "wide current spike (half resonant period)",
          linsys::pulseSignal(150, lo, hi, 9, period / 2 + 5)},
         vThreshold, 4.0);

    // Fig. 5: notched wide spike — control kicks in mid-pulse.
    {
        auto amps = linsys::pulseSignal(150, lo, hi, 9, period / 2 + 5);
        // Notch: the controller cuts current for a few cycles.
        for (size_t t = 9 + period / 4; t < 9 + period / 4 + 8; ++t)
            amps[t] = lo;
        show({"Figure 5", "notched wide spike (mid-pulse control)",
              std::move(amps)},
             vThreshold, 4.0);
    }

    // Fig. 6: pulse train at the resonant frequency.
    show({"Figure 6", "pulse train at the resonant frequency",
          linsys::pulseTrainSignal(6 * period, lo, hi, 9, period / 2,
                                   period)},
         vMinBound, 2.0);

    // Quantify the Fig. 6 build-up: successive minima deepen.
    {
        pdn::PdnSim sim(pkg);
        sim.trimToCurrent(lo);
        const auto amps = linsys::pulseTrainSignal(6 * period, lo, hi, 9,
                                                   period / 2, period);
        const auto vs = sim.run(amps);
        std::printf("Fig. 6 per-period minima (resonant build-up):\n");
        for (unsigned k = 0; k < 5; ++k) {
            double m = 2.0;
            for (size_t t = 9 + k * period;
                 t < std::min(vs.size(), static_cast<size_t>(
                                             9 + (k + 1) * period));
                 ++t)
                m = std::min(m, vs[t]);
            std::printf("  pulse %u: min %.4f V\n", k + 1, m);
        }
    }
    return 0;
}
