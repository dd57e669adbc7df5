#include "core/replay_sweep.hpp"

#include <algorithm>

#include "obs/tracing.hpp"
#include "util/logging.hpp"

namespace vguard::core {

std::vector<SweepLaneResult>
replaySweep(const double *amps, size_t n,
            const std::vector<SweepLane> &lanes, pdn::BackendKind kind,
            size_t blockCycles)
{
    VGUARD_CHECK(blockCycles > 0);
    const size_t k = lanes.size();
    std::vector<SweepLaneResult> results;
    std::vector<pdn::LaneConfig> cfgs;
    results.reserve(k);
    cfgs.reserve(k);
    for (const SweepLane &lane : lanes) {
        results.emplace_back(lane.package.vNominal, lane.band,
                             lane.histLo, lane.histHi, lane.histBins);
        cfgs.push_back({lane.package, lane.iTrim});
    }
    const auto backend = pdn::makeBackend(kind, cfgs);

    std::vector<double> volts(blockCycles * k);
    size_t done = 0;
    while (done < n) {
        const size_t chunk = std::min(blockCycles, n - done);
        {
            // One Wall-class span per block (thousands of cycles, so
            // the span cost vanishes). Emitted here rather than in
            // the backend: pdn sits below obs in the layering.
            obs::TraceSpan span("pdn.backend.step_shared",
                                obs::TraceClass::Wall);
            span.arg("cycles", uint64_t{chunk})
                .arg("lanes", uint64_t{k});
            backend->stepShared(amps + done, chunk, volts.data());
        }
        for (size_t cyc = 0; cyc < chunk; ++cyc) {
            const double *row = volts.data() + cyc * k;
            for (size_t lane = 0; lane < k; ++lane)
                results[lane].add(row[lane]);
        }
        done += chunk;
    }
    return results;
}

} // namespace vguard::core
