/**
 * @file
 * Functional-unit pool per Table 1: 8 IntALU, 2 shared IntMult/IntDiv,
 * 4 FPALU, 2 shared FPMult/FPDiv, 4 memory ports. Units track an
 * issue-repeat interval so unpipelined dividers block re-issue for
 * nearly their whole latency (SimpleScalar semantics).
 */

#ifndef VGUARD_CPU_FUNC_UNITS_HPP
#define VGUARD_CPU_FUNC_UNITS_HPP

#include <cstdint>
#include <vector>

#include "cpu/config.hpp"
#include "isa/opcodes.hpp"

namespace vguard::cpu {

/** Physical unit groups. */
enum class FuGroup : uint8_t {
    IntAlu,
    IntMultDiv,
    FpAlu,
    FpMultDiv,
    MemPort,
    None,
};

/** Group an op class executes on (branches use an IntALU). */
FuGroup fuGroupOf(isa::OpClass cls);

/** Pool of functional units with busy tracking. */
class FuncUnitPool
{
  public:
    explicit FuncUnitPool(const CpuConfig &cfg);

    /**
     * Try to claim a unit of @p group at cycle @p now for an op of
     * class @p cls. On success the unit is busy until now + the op's
     * repeat interval and the call returns true.
     */
    bool tryIssue(isa::OpClass cls, uint64_t now);

    /** Operation result latency of @p cls. */
    unsigned latencyOf(isa::OpClass cls) const;

    /** Issue-repeat interval of @p cls. */
    unsigned repeatOf(isa::OpClass cls) const;

    /** Units in @p group (for phantom-fire power accounting). */
    unsigned count(FuGroup group) const;

    /** Units of @p group busy at cycle @p now. */
    unsigned busyCount(FuGroup group, uint64_t now) const;

    /** Whether some unit of @p group is free at cycle @p now. */
    bool anyFree(FuGroup group, uint64_t now) const;

    /**
     * First cycle after @p now at which some unit that is busy at
     * @p now becomes free, or UINT64_MAX if none is busy.
     */
    uint64_t nextRelease(uint64_t now) const;

  private:
    const std::vector<uint64_t> &groupOf(FuGroup g) const;
    std::vector<uint64_t> &groupOf(FuGroup g);

    CpuConfig cfg_;
    std::vector<uint64_t> intAlu_;     ///< busy-until cycle per unit
    std::vector<uint64_t> intMultDiv_;
    std::vector<uint64_t> fpAlu_;
    std::vector<uint64_t> fpMultDiv_;
    std::vector<uint64_t> memPorts_;
};

} // namespace vguard::cpu

#endif // VGUARD_CPU_FUNC_UNITS_HPP
