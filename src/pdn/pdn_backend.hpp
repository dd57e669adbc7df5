/**
 * @file
 * Multi-scenario PDN stepping behind one interface.
 *
 * The paper's sweeps (Table 2 emergency counts vs impedance, Table 3
 * thresholds vs package/delay, Fig. 10 distributions) all push the
 * *same* captured current trace through many package configurations.
 * A PdnBackend steps K such scenarios — "lanes" — in lockstep:
 *
 *  - ScalarPdnBackend: one PdnSim per lane, each block one
 *    PdnSim::stepMany (stepBlock2) call per lane. This is the
 *    bit-exact golden reference.
 *  - BatchedPdnBackend: structure-of-arrays state stepped through
 *    simd::DoublePack, kPackWidth lanes per instruction, by one kernel
 *    template whose only variation is a broadcast (shared) or a
 *    per-lane load of the current. It follows stepBlock2's canonical
 *    FP summation order term for term (see linsys/matn.hpp), so its
 *    output is bit-identical to the scalar backend — not
 *    approximately equal; tests/test_backend_diff asserts byte
 *    equality across presets, lane counts and block sizes.
 *
 * Output layout is cycle-major: volts[k * lanes() + lane] is lane
 * `lane`'s die voltage on cycle k. Cycle-major keeps the batched
 * kernel's stores contiguous and lets sweep bookkeeping walk each
 * cycle's K voltages in one cache line.
 */

#ifndef VGUARD_PDN_PDN_BACKEND_HPP
#define VGUARD_PDN_PDN_BACKEND_HPP

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "pdn/package_model.hpp"

namespace vguard::pdn {

/** One scenario: a package design plus its regulator trim current. */
struct LaneConfig
{
    PackageParams package;
    double iTrim = 0.0;  ///< regulator trim current [A]
};

/** Which stepping engine to instantiate. */
enum class BackendKind
{
    Scalar,   ///< lane-major PdnSim loop (golden reference)
    Batched,  ///< cycle-major SoA + simd::DoublePack
};

/**
 * K PDN scenarios stepped in lockstep over a shared clock.
 *
 * Two block entry points, one per input shape; there is no separate
 * per-cycle call. A per-cycle caller (the threshold solver's lanes,
 * closed-loop chips) calls stepPerLane with n = 1. Each engine has one
 * stepping body behind both entry points, so a block of n cycles is
 * bit-identical to n one-cycle calls, and the two entry points
 * compose on one instance.
 *
 * Neither entry point is traced here: pdn sits below obs in the
 * layering (vlint layer-dag), so the per-block spans
 * (pdn.backend.step_shared / step_per_lane) are emitted by the
 * core-layer call sites, and per-cycle callers emit none.
 */
class PdnBackend
{
  public:
    virtual ~PdnBackend() = default;

    virtual std::string name() const = 0;

    /** Number of scenario lanes. */
    virtual size_t lanes() const = 0;

    /** Regulator set point of @p lane (after trim). */
    virtual double vddSetPoint(size_t lane) const = 0;

    /** Reset every lane to its DC trim operating point. */
    virtual void reset() = 0;

    /**
     * Advance @p n cycles with all lanes drawing the same current
     * trace @p amps (the shared-trace sweep case). Writes cycle-major:
     * volts[k * lanes() + lane]. Callable repeatedly to stream a long
     * trace through in blocks; lane state carries across calls.
     */
    virtual void stepShared(const double *amps, size_t n,
                            double *volts) = 0;

    /**
     * Advance @p n cycles with a distinct current trace per lane: one
     * chip's summed rail draw per lane, or one solver scenario's
     * controlled draw. Both @p amps and @p volts are cycle-major:
     * amps[k * lanes() + lane] is lane `lane`'s draw on cycle k. Like
     * stepShared, callable repeatedly in blocks with lane state
     * carrying across calls.
     */
    virtual void stepPerLane(const double *amps, size_t n,
                             double *volts) = 0;
};

/**
 * Golden reference: one PdnSim per lane.
 *
 * Both factories check (VGUARD_CHECK) that there is at least one lane
 * and that every trim current is finite. Each lane's package is
 * checked where every rail's is: by the PackageModel both engines
 * build per lane. A degenerate lane would otherwise feed NaNs or a
 * singular design into the trim solve and poison every lane-batched
 * artifact downstream.
 */
std::unique_ptr<PdnBackend>
makeScalarBackend(const std::vector<LaneConfig> &lanes);

/** SoA lane-batched engine, bit-identical to the scalar backend. */
std::unique_ptr<PdnBackend>
makeBatchedBackend(const std::vector<LaneConfig> &lanes);

/** Factory over BackendKind. */
std::unique_ptr<PdnBackend>
makeBackend(BackendKind kind, const std::vector<LaneConfig> &lanes);

} // namespace vguard::pdn

#endif // VGUARD_PDN_PDN_BACKEND_HPP
