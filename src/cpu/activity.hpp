/**
 * @file
 * Per-cycle microarchitectural activity — the interface between the
 * cycle core and the Wattch-style power model, and the lever the dI/dt
 * actuators pull.
 *
 * Every cycle the core fills an ActivityVector describing which
 * structures did how much work; the power model maps it to watts
 * (paper Fig. 7: "per cycle processor power estimates which we directly
 * translate into current figures").
 *
 * GateState / PhantomState carry the actuator commands of Section 5:
 * clock-gating controlled units (stalling their pipelines) and
 * "phantom firing" idle units to raise current.
 */

#ifndef VGUARD_CPU_ACTIVITY_HPP
#define VGUARD_CPU_ACTIVITY_HPP

#include <cstdint>

namespace vguard::cpu {

/** Which controllable unit groups are clock-gated this cycle. */
struct GateState
{
    bool fu = false;   ///< all functional units (int + fp pipelines)
    bool dl1 = false;  ///< level-one data cache
    bool il1 = false;  ///< level-one instruction cache (stalls fetch)

    bool any() const { return fu || dl1 || il1; }
    bool operator==(const GateState &) const = default;
};

/** Which unit groups are phantom-fired (extra activity) this cycle. */
struct PhantomState
{
    bool fu = false;
    bool dl1 = false;
    bool il1 = false;

    bool any() const { return fu || dl1 || il1; }
    bool operator==(const PhantomState &) const = default;
};

/** One cycle of microarchitectural activity counts. */
struct ActivityVector
{
    // Front end.
    uint32_t fetched = 0;
    uint32_t icacheAccesses = 0;
    uint32_t icacheMisses = 0;
    uint32_t bpredLookups = 0;

    // Dispatch / window.
    uint32_t dispatched = 0;
    uint32_t ruuOccupancy = 0;
    uint32_t lsqOccupancy = 0;

    // Issue (per structural class) and in-flight occupancy of the
    // execution pipelines (used to spread multi-cycle-op energy over
    // the op's full latency, per the paper's Wattch modifications).
    uint32_t issuedIntAlu = 0;
    uint32_t issuedIntMult = 0;
    uint32_t issuedIntDiv = 0;
    uint32_t issuedFpAdd = 0;
    uint32_t issuedFpMult = 0;
    uint32_t issuedFpDiv = 0;
    uint32_t busyIntAlu = 0;
    uint32_t busyIntMultDiv = 0;
    uint32_t busyFpAlu = 0;
    uint32_t busyFpMultDiv = 0;

    // Memory system.
    uint32_t memPortsUsed = 0;
    uint32_t dcacheAccesses = 0;
    uint32_t dcacheMisses = 0;
    uint32_t l2Accesses = 0;
    uint32_t l2Misses = 0;
    uint32_t lsqForwards = 0;

    // Register file / result bus / retire.
    uint32_t regReads = 0;
    uint32_t regWrites = 0;
    uint32_t writebacks = 0;
    uint32_t committed = 0;

    /** Mean data switching factor of ops issued this cycle [0, 1]. */
    float issueActivity = 0.0f;

    // Controller state in effect this cycle (recorded by the core so
    // the power model sees exactly what timing saw).
    GateState gates;
    PhantomState phantom;

    /** Zero all counts (gating/phantom state untouched). */
    void
    clear()
    {
        const GateState g = gates;
        const PhantomState p = phantom;
        *this = ActivityVector{};
        gates = g;
        phantom = p;
    }

    bool operator==(const ActivityVector &) const = default;
};

} // namespace vguard::cpu

#endif // VGUARD_CPU_ACTIVITY_HPP
