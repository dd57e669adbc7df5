/**
 * @file
 * The threshold dI/dt controller: sensor + actuator glue (paper
 * Section 4.1, Fig. 11).
 *
 * Each cycle the controller feeds the measured die voltage to the
 * threshold sensor and routes the resulting Low/Normal/High level to
 * the actuator, which gates or phantom-fires the controlled units from
 * the next cycle (one cycle of actuation latency is inherent, on top
 * of the configured sensor delay — the threshold solver models the
 * same loop).
 */

#ifndef VGUARD_CORE_CONTROLLER_HPP
#define VGUARD_CORE_CONTROLLER_HPP

#include "core/actuator.hpp"
#include "core/sensor.hpp"
#include "cpu/core.hpp"

namespace vguard::core {

/** Sensor + actuator in a feedback loop around a core. */
class ThresholdController
{
  public:
    ThresholdController(const SensorConfig &sensor, ActuatorKind kind);

    /** Asymmetric variant: distinct gate / phantom unit sets. */
    ThresholdController(const SensorConfig &sensor, ActuatorKind gate,
                        ActuatorKind phantom);

    /** Observe this cycle's voltage and command the core. */
    void step(double vNow, cpu::OoOCore &core);

    /** Last level the control logic acted on. */
    VoltageLevel lastLevel() const { return lastLevel_; }

    const Actuator &actuator() const { return actuator_; }
    const ThresholdSensor &sensor() const { return sensor_; }

    /**
     * Append the whole control loop to @p out: sensor counters under
     * `<prefix>.sensor.*`, actuator counters under
     * `<prefix>.actuator.*`.
     */
    void
    appendStats(obs::Snapshot &out, const std::string &prefix) const
    {
        sensor_.appendStats(out, prefix + ".sensor");
        actuator_.appendStats(out, prefix + ".actuator");
    }

  private:
    ThresholdSensor sensor_;
    Actuator actuator_;
    VoltageLevel lastLevel_ = VoltageLevel::Normal;
};

} // namespace vguard::core

#endif // VGUARD_CORE_CONTROLLER_HPP
