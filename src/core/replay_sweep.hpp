/**
 * @file
 * Multi-scenario trace replay: one captured current trace through K
 * package configurations in a single pass.
 *
 * The paper's impedance sweeps (Table 2's emergency counts, Fig. 10's
 * distributions) replay the same workload against many packages.
 * VoltageSim::runReplay handles one package per pass; replaySweep
 * pushes all K through a pdn::PdnBackend — batched by default, so K
 * scenarios cost roughly one trace walk — and accounts each lane with
 * the same core::RailTally runReplay uses, so every lane's tally is
 * bit-identical to a VoltageSim::runReplay of that lane's package
 * (asserted by tests/test_backend_diff.cpp).
 */

#ifndef VGUARD_CORE_REPLAY_SWEEP_HPP
#define VGUARD_CORE_REPLAY_SWEEP_HPP

#include <cstdint>
#include <vector>

#include "core/rail_tally.hpp"
#include "pdn/pdn_backend.hpp"

namespace vguard::core {

/** One sweep scenario: package, trim, band and histogram. */
struct SweepLane
{
    pdn::PackageParams package;
    double iTrim = 0.0;   ///< regulator trim current [A]
    double band = 0.05;   ///< emergency band (fraction of vNominal)
    double histLo = 0.90; ///< voltage histogram range
    double histHi = 1.10;
    size_t histBins = 80;
};

/** Per-lane result: the PDN-side subset of VoltageSimResult. */
using SweepLaneResult = RailTally;

/**
 * Replay the current trace @p amps[0..n) through every lane of a
 * freshly-trimmed backend of kind @p kind, streaming in blocks of
 * @p blockCycles cycles.
 */
std::vector<SweepLaneResult>
replaySweep(const double *amps, size_t n,
            const std::vector<SweepLane> &lanes,
            pdn::BackendKind kind = pdn::BackendKind::Batched,
            size_t blockCycles = 256);

} // namespace vguard::core

#endif // VGUARD_CORE_REPLAY_SWEEP_HPP
