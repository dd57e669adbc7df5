/**
 * @file
 * Microarchitectural actuators (paper Section 5).
 *
 * On "voltage low" the actuator clock-gates its controlled units,
 * cutting current so the supply recovers; on "voltage high" it
 * phantom-fires them, burning current to pull the voltage down.
 * Granularities evaluated in the paper:
 *
 *  - Fu:        all functional units (fixed + float pipelines) —
 *               too little leverage, unstable at delay >= 3;
 *  - FuDl1:     functional units + L1 data cache;
 *  - FuDl1Il1:  + L1 instruction cache (coarsest);
 *  - Ideal:     everything controllable at once with no structural
 *               side-effects beyond gating — used for the sensor
 *               studies of Section 4.
 *
 * Gating/phantom-firing never affects architectural correctness: gated
 * units simply stall their consumers (no instructions are dropped) and
 * phantom results are discarded.
 */

#ifndef VGUARD_CORE_ACTUATOR_HPP
#define VGUARD_CORE_ACTUATOR_HPP

#include "core/sensor.hpp"
#include "cpu/core.hpp"
#include "obs/metrics.hpp"

namespace vguard::core {

/** Actuation granularity. */
enum class ActuatorKind : uint8_t { Ideal, Fu, FuDl1, FuDl1Il1 };

/** Printable name. */
const char *actuatorName(ActuatorKind kind);

/** Maps sensor levels to gating/phantom commands on a core. */
class Actuator
{
  public:
    explicit Actuator(ActuatorKind kind);

    /**
     * Asymmetric actuation (paper Section 6): use @p gateKind's units
     * for voltage-low clock gating and @p phantomKind's units for
     * voltage-high phantom firing.
     */
    Actuator(ActuatorKind gateKind, ActuatorKind phantomKind);

    /** Apply the response for @p level to @p core (from next cycle). */
    void apply(VoltageLevel level, cpu::OoOCore &core);

    ActuatorKind kind() const { return gateKind_; }
    ActuatorKind gateKind() const { return gateKind_; }
    ActuatorKind phantomKind() const { return phantomKind_; }

    /** Cycles spent gating (voltage-low responses). */
    uint64_t gatedCycles() const { return gatedCycles_; }
    /** Cycles spent phantom-firing (voltage-high responses). */
    uint64_t phantomCycles() const { return phantomCycles_; }
    /** Transitions from Normal into Low. */
    uint64_t lowTriggers() const { return lowTriggers_; }
    /** Transitions from Normal into High. */
    uint64_t highTriggers() const { return highTriggers_; }

    /**
     * Append the actuator counters to @p out under `<prefix>.`
     * (gated_cycles, phantom_cycles, low_triggers, high_triggers).
     */
    void appendStats(obs::Snapshot &out,
                     const std::string &prefix) const;

  private:
    cpu::GateState gateMask() const;
    cpu::PhantomState phantomMask() const;

    ActuatorKind gateKind_;
    ActuatorKind phantomKind_;
    VoltageLevel lastLevel_ = VoltageLevel::Normal;
    uint64_t gatedCycles_ = 0;
    uint64_t phantomCycles_ = 0;
    uint64_t lowTriggers_ = 0;
    uint64_t highTriggers_ = 0;
};

} // namespace vguard::core

#endif // VGUARD_CORE_ACTUATOR_HPP
