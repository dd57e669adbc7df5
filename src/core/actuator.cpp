#include "core/actuator.hpp"

#include "util/logging.hpp"

namespace vguard::core {

const char *
actuatorName(ActuatorKind kind)
{
    switch (kind) {
      case ActuatorKind::Ideal:     return "ideal";
      case ActuatorKind::Fu:        return "FU";
      case ActuatorKind::FuDl1:     return "FU/DL1";
      case ActuatorKind::FuDl1Il1:  return "FU/DL1/IL1";
    }
    return "???";
}

Actuator::Actuator(ActuatorKind kind)
    : gateKind_(kind), phantomKind_(kind)
{
}

Actuator::Actuator(ActuatorKind gateKind, ActuatorKind phantomKind)
    : gateKind_(gateKind), phantomKind_(phantomKind)
{
}

cpu::GateState
Actuator::gateMask() const
{
    switch (gateKind_) {
      case ActuatorKind::Fu:       return {true, false, false};
      case ActuatorKind::FuDl1:    return {true, true, false};
      case ActuatorKind::FuDl1Il1:
      case ActuatorKind::Ideal:    return {true, true, true};
    }
    panic("Actuator::gateMask: bad kind");
}

cpu::PhantomState
Actuator::phantomMask() const
{
    switch (phantomKind_) {
      case ActuatorKind::Fu:       return {true, false, false};
      case ActuatorKind::FuDl1:    return {true, true, false};
      case ActuatorKind::FuDl1Il1:
      case ActuatorKind::Ideal:    return {true, true, true};
    }
    panic("Actuator::phantomMask: bad kind");
}

void
Actuator::appendStats(obs::Snapshot &out,
                      const std::string &prefix) const
{
    out.addCounter(prefix + ".gated_cycles", "cycles spent clock-gating",
                   gatedCycles_);
    out.addCounter(prefix + ".phantom_cycles",
                   "cycles spent phantom-firing", phantomCycles_);
    out.addCounter(prefix + ".low_triggers", "Normal->Low transitions",
                   lowTriggers_);
    out.addCounter(prefix + ".high_triggers", "Normal->High transitions",
                   highTriggers_);
}

void
Actuator::apply(VoltageLevel level, cpu::OoOCore &core)
{
    switch (level) {
      case VoltageLevel::Low:
        core.setGates(gateMask());
        core.setPhantom({});
        ++gatedCycles_;
        if (lastLevel_ != VoltageLevel::Low)
            ++lowTriggers_;
        break;
      case VoltageLevel::High:
        core.setGates({});
        core.setPhantom(phantomMask());
        ++phantomCycles_;
        if (lastLevel_ != VoltageLevel::High)
            ++highTriggers_;
        break;
      case VoltageLevel::Normal:
        core.setGates({});
        core.setPhantom({});
        break;
    }
    lastLevel_ = level;
}

} // namespace vguard::core
