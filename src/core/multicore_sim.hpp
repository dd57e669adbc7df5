/**
 * @file
 * Many-core shared-PDN chip simulation.
 *
 * The paper models one core on one package; this module asks the next
 * question: N cores drawing from a *shared* package rail, each core a
 * captured open-loop current trace replayed with a per-core phase
 * offset (one capture feeds every placement — trace_cache.hpp), with
 * optional per-core bang-bang loops and a chip-level ChipGovernor
 * arbitrating simultaneous throttles. The cores' sensors share one
 * ThresholdSensor reading of the rail; only their reading error is
 * per core. A cycle on which no core asks to act and none is acting
 * skips arbitration and actuation.
 *
 * runChips is the one entry point: it steps K chips from reset for a
 * given number of cycles, once, and returns each chip's result.
 *
 * Scale-out follows the lane-batched backend: each pdn::PdnBackend
 * lane is one chip's rail, so K chip scenarios (core counts, phase
 * alignments, governor settings) step in lockstep through one
 * PdnBackend::stepPerLane stream, scalar remaining the bit-exact
 * golden reference. One loop serves open and closed loop: gather
 * each chip's summed draw, stepPerLane, then tally every rail and
 * run each sensed chip's control. Open-loop runs gather blocks of
 * many cycles; a run with any sensed chip gathers one cycle at a
 * time, since its next draw depends on this cycle's voltage.
 *
 * Bit-identity contract:
 *  - per-core currents are summed in core-index order from +0.0, so a
 *    1-core chip feeds the rail exactly its trace (0.0 + a == a); each
 *    chip accounts its rail with the core::RailTally runReplay uses, so
 *    the N=1 open-loop configuration reproduces single-core
 *    VoltageSim::runReplay results bit-identically;
 *  - a block of n cycles is bit-identical to n one-cycle steps (the
 *    backend's one stepping body per engine), so an open chip's
 *    results do not depend on whether a sensed chip shares its run;
 *  - reordering the chips vector permutes results bit-exactly (lanes
 *    are arithmetically independent). Reordering *cores within* a
 *    chip is not bit-invariant in general: it reassociates the FP
 *    current sum.
 *
 * Replay actuation model: a gated core draws iGate, a phantom-fired
 * core iPhantom — the same current-clamp abstraction the threshold
 * solver uses (a replayed trace cannot re-time the core itself). A
 * core with no trace (or an empty one) is *parked*: it draws iGate
 * every cycle and never requests actuation.
 */

#ifndef VGUARD_CORE_MULTICORE_SIM_HPP
#define VGUARD_CORE_MULTICORE_SIM_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "core/chip_governor.hpp"
#include "core/rail_tally.hpp"
#include "core/sensor.hpp"
#include "core/trace_cache.hpp"
#include "pdn/pdn_backend.hpp"

namespace vguard::core {

/** One core's current source on a shared rail. */
struct CoreSlot
{
    /** Captured open-loop trace; null/empty means a parked core. */
    const CapturedTrace *trace = nullptr;
    /** Replay phase offset [cycles] (trace index wraps modulo len). */
    size_t phaseOffset = 0;
    double iGate = 0.0;     ///< draw when gated (and when parked) [A]
    double iPhantom = 0.0;  ///< draw when phantom firing [A]
};

/** One chip: a package rail plus its cores and control layers. */
struct ChipSpec
{
    pdn::PackageParams package;
    double iTrim = 0.0;    ///< regulator trim current [A]
    double band = 0.05;    ///< emergency band (fraction of vNominal)
    double histLo = 0.90;  ///< voltage histogram range
    double histHi = 1.10;
    size_t histBins = 80;
    std::vector<CoreSlot> cores;
    /**
     * Per-core bang-bang sensing; open loop when unset. Every core
     * reads the shared rail through one delay line; with noise, each
     * core's reading error comes from its own stream, seeded
     * deriveRunSeed(seed, core index).
     */
    std::optional<SensorConfig> sensor;
    /** Chip-level throttle arbitration; requires `sensor`. */
    std::optional<ChipGovernorConfig> governor;
};

/** Per-core control bookkeeping of one run. */
struct CoreStats
{
    uint64_t gatedCycles = 0;    ///< cycles spent current-clamped low
    uint64_t phantomCycles = 0;  ///< cycles spent phantom firing
    uint64_t gateRequests = 0;   ///< sensor-Low gate requests
    uint64_t gateDenials = 0;    ///< requests the governor denied

    bool operator==(const CoreStats &) const = default;
};

/** Per-chip results of one run: the rail tally plus the control layer. */
struct ChipResult : RailTally
{
    using RailTally::RailTally;

    std::vector<CoreStats> cores;
    uint64_t gateGrants = 0;   ///< granted gate requests (all cores)
    uint64_t gateDenials = 0;  ///< denied gate requests (all cores)
    /**
     * Jain fairness index over per-core gated cycles of the cores
     * that can gate (non-parked): 1.0 = perfectly even throttling,
     * 1/N = one core absorbs everything. 1.0 when nothing gated.
     */
    double gateFairness = 1.0;

    /** Field-for-field exact equality, every core's counters too. */
    bool operator==(const ChipResult &) const = default;
};

/**
 * Step @p chips in lockstep through one backend of @p kind for
 * @p cycles cycles from reset, and return each chip's result. Blocks
 * are @p blockCycles long when every chip is open loop; a run with a
 * sensed chip steps one cycle at a time.
 */
std::vector<ChipResult>
runChips(const std::vector<ChipSpec> &chips, uint64_t cycles,
         pdn::BackendKind kind = pdn::BackendKind::Batched,
         size_t blockCycles = 256);

} // namespace vguard::core

#endif // VGUARD_CORE_MULTICORE_SIM_HPP
