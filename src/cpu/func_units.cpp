#include "cpu/func_units.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace vguard::cpu {

using isa::OpClass;

FuGroup
fuGroupOf(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
        return FuGroup::IntAlu;
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return FuGroup::IntMultDiv;
      case OpClass::FpAdd:
        return FuGroup::FpAlu;
      case OpClass::FpMult:
      case OpClass::FpDiv:
        return FuGroup::FpMultDiv;
      case OpClass::Load:
      case OpClass::Store:
        return FuGroup::MemPort;
      case OpClass::Nop:
        return FuGroup::None;
    }
    panic("fuGroupOf: bad class %d", static_cast<int>(cls));
}

FuncUnitPool::FuncUnitPool(const CpuConfig &cfg)
    : cfg_(cfg), intAlu_(cfg.numIntAlu, 0),
      intMultDiv_(cfg.numIntMultDiv, 0), fpAlu_(cfg.numFpAlu, 0),
      fpMultDiv_(cfg.numFpMultDiv, 0), memPorts_(cfg.numMemPorts, 0)
{
    if (cfg.numIntAlu == 0 || cfg.numMemPorts == 0)
        fatal("FuncUnitPool: need at least one IntALU and one mem port");
}

const std::vector<uint64_t> &
FuncUnitPool::groupOf(FuGroup g) const
{
    switch (g) {
      case FuGroup::IntAlu:     return intAlu_;
      case FuGroup::IntMultDiv: return intMultDiv_;
      case FuGroup::FpAlu:      return fpAlu_;
      case FuGroup::FpMultDiv:  return fpMultDiv_;
      case FuGroup::MemPort:    return memPorts_;
      case FuGroup::None:       break;
    }
    panic("FuncUnitPool::groupOf: bad group");
}

std::vector<uint64_t> &
FuncUnitPool::groupOf(FuGroup g)
{
    return const_cast<std::vector<uint64_t> &>(
        static_cast<const FuncUnitPool *>(this)->groupOf(g));
}

unsigned
FuncUnitPool::latencyOf(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:  return cfg_.intAluLat;
      case OpClass::IntMult: return cfg_.intMultLat;
      case OpClass::IntDiv:  return cfg_.intDivLat;
      case OpClass::FpAdd:   return cfg_.fpAddLat;
      case OpClass::FpMult:  return cfg_.fpMultLat;
      case OpClass::FpDiv:   return cfg_.fpDivLat;
      case OpClass::Load:
      case OpClass::Store:   return 1; // cache latency added separately
      case OpClass::Nop:     return 0;
    }
    panic("latencyOf: bad class");
}

unsigned
FuncUnitPool::repeatOf(OpClass cls) const
{
    switch (cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:  return 1;
      case OpClass::IntMult: return cfg_.intMultRepeat;
      case OpClass::IntDiv:  return cfg_.intDivRepeat;
      case OpClass::FpAdd:   return cfg_.fpAddRepeat;
      case OpClass::FpMult:  return cfg_.fpMultRepeat;
      case OpClass::FpDiv:   return cfg_.fpDivRepeat;
      case OpClass::Load:
      case OpClass::Store:   return 1;
      case OpClass::Nop:     return 0;
    }
    panic("repeatOf: bad class");
}

bool
FuncUnitPool::tryIssue(OpClass cls, uint64_t now)
{
    const FuGroup g = fuGroupOf(cls);
    if (g == FuGroup::None)
        return true;
    auto &units = groupOf(g);
    for (auto &busyUntil : units) {
        if (busyUntil <= now) {
            busyUntil = now + repeatOf(cls);
            return true;
        }
    }
    return false;
}

unsigned
FuncUnitPool::count(FuGroup group) const
{
    return static_cast<unsigned>(groupOf(group).size());
}

unsigned
FuncUnitPool::busyCount(FuGroup group, uint64_t now) const
{
    unsigned busy = 0;
    for (uint64_t until : groupOf(group))
        busy += until > now;
    return busy;
}

bool
FuncUnitPool::anyFree(FuGroup group, uint64_t now) const
{
    for (uint64_t until : groupOf(group))
        if (until <= now)
            return true;
    return false;
}

uint64_t
FuncUnitPool::nextRelease(uint64_t now) const
{
    uint64_t next = ~uint64_t{0};
    for (const auto *units :
         {&intAlu_, &intMultDiv_, &fpAlu_, &fpMultDiv_, &memPorts_})
        for (uint64_t until : *units)
            if (until > now)
                next = std::min(next, until);
    return next;
}

} // namespace vguard::cpu
