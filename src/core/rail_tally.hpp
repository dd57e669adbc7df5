/**
 * @file
 * The die-voltage accounting behind Table 2's emergency counts and
 * Fig. 10's voltage distributions: per-cycle min/max, low/high
 * emergency-band counts and a voltage histogram.
 *
 * Every result-producing path feeds its voltages through one
 * RailTally::add — VoltageSim's closed loop, open loop and replay,
 * replaySweep's K lanes, and each runChips chip — so given the
 * same voltages the paths agree bit for bit. The band edges
 * vNominal·(1 ∓ band) are computed here and nowhere else, and the
 * constructor validates the band and histogram at the point every
 * path's configuration enters.
 *
 * add() is inline and non-virtual: it runs once per simulated cycle
 * per lane, and this bookkeeping is most of a replayed cycle's cost.
 */

#ifndef VGUARD_CORE_RAIL_TALLY_HPP
#define VGUARD_CORE_RAIL_TALLY_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "util/logging.hpp"
#include "util/stats.hpp"

namespace vguard::core {

/** Die-voltage accounting of one rail over some cycles. */
struct RailTally
{
    uint64_t cycles = 0;
    double minV = 0.0;
    double maxV = 0.0;
    uint64_t lowEmergencyCycles = 0;
    uint64_t highEmergencyCycles = 0;
    Histogram voltageHist{0.90, 1.10, 80};

    /** An empty result that no run has filled in. */
    RailTally() = default;

    /**
     * @param vNominal nominal die voltage [V]; min/max start here
     * @param band     emergency band, a fraction of @p vNominal
     *                 (finite, >= 0)
     * @param histLo,histHi histogram range [V] (finite, lo < hi)
     * @param histBins histogram bins (>= 1)
     */
    RailTally(double vNominal, double band, double histLo, double histHi,
              size_t histBins)
        : minV(vNominal), maxV(vNominal),
          vLo_(vNominal * (1.0 - band)), vHi_(vNominal * (1.0 + band))
    {
        // A NaN band makes both edges NaN, so no cycle ever counts; a
        // negative one inverts the window; a non-finite histogram edge
        // sends every sample to one bin. Refuse them all here.
        VGUARD_CHECK(std::isfinite(band) && band >= 0.0);
        VGUARD_CHECK(std::isfinite(histLo) && std::isfinite(histHi) &&
                     histLo < histHi);
        VGUARD_CHECK(histBins >= 1);
        voltageHist = Histogram(histLo, histHi, histBins);
    }

    /** Account one cycle at die voltage @p v. */
    void
    add(double v)
    {
        minV = std::min(minV, v);
        maxV = std::max(maxV, v);
        voltageHist.add(v);
        if (v < vLo_)
            ++lowEmergencyCycles;
        else if (v > vHi_)
            ++highEmergencyCycles;
        ++cycles;
    }

    uint64_t
    emergencyCycles() const
    {
        return lowEmergencyCycles + highEmergencyCycles;
    }

    /** Lower / upper emergency-band edge [V]. */
    double vLo() const { return vLo_; }
    double vHi() const { return vHi_; }

    /** Field-for-field exact equality. */
    bool operator==(const RailTally &) const = default;

  private:
    double vLo_ = 0.0;
    double vHi_ = 0.0;
};

} // namespace vguard::core

#endif // VGUARD_CORE_RAIL_TALLY_HPP
