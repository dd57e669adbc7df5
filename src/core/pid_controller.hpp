/**
 * @file
 * A digital P-I-D voltage controller — the alternative the paper's
 * Section 6 examines and argues against for dI/dt control:
 *
 *   "P-I-D controllers need a more definitive voltage reading … a
 *    textbook digital P-I-D controller would require a series of
 *    additions and multiplications based on previous voltage readings
 *    … this would likely increase the control delay."
 *
 * This implementation lets that argument be tested quantitatively. The
 * controller samples the (delayed, noisy) voltage each cycle, runs the
 * discrete PID law on the error from the nominal setpoint, and maps
 * the control effort onto a multi-level actuator: the core's issue
 * limit (proportional braking), escalating to full clock gating when
 * saturated low and phantom firing when saturated high. The
 * multiply-accumulate pipeline of a real digital PID is modeled as
 * extra cycles of loop delay (`computeDelay`).
 */

#ifndef VGUARD_CORE_PID_CONTROLLER_HPP
#define VGUARD_CORE_PID_CONTROLLER_HPP

#include <cstdint>
#include <vector>

#include "cpu/core.hpp"
#include "util/rng.hpp"

namespace vguard::core {

/** PID gains and loop properties. */
struct PidConfig
{
    double kp = 3.0;             ///< proportional gain (per volt-error)
    double ki = 0.05;            ///< integral gain
    double kd = 12.0;            ///< derivative gain
    /**
     * Setpoint [V]. Deliberately below the nominal voltage: under
     * load the die sits below nominal by the IR drop, and a PID
     * referenced at 1.0 V fights that offset permanently (integral
     * windup into a standing brake). This is one of the practical
     * headaches the threshold scheme avoids.
     */
    double vRef = 0.972;
    double band = 0.05;          ///< error normalisation (fraction)
    unsigned sensorDelay = 1;    ///< reading age [cycles]
    unsigned computeDelay = 2;   ///< P-I-D arithmetic latency [cycles]
    double noiseMagnitude = 0.0; ///< bounded reading noise [V]
    uint64_t seed = 0x91d;
    double integralClamp = 2.0;  ///< anti-windup bound on the I term
    /**
     * Phantom firing engages only when the reading also exceeds this
     * guard — a plain PID would otherwise burn phantom power whenever
     * the voltage sits above its (deliberately low) setpoint.
     */
    double vHighGuard = 1.03;
};

/** The PID loop around a core. */
class PidController
{
  public:
    PidController(const PidConfig &cfg, unsigned issueWidth);

    /** Observe this cycle's voltage; command the core. */
    void step(double vNow, cpu::OoOCore &core);

    /** Last commanded issue limit (issueWidth = unthrottled). */
    unsigned lastLevel() const { return lastLevel_; }

    /** Cycles spent fully gated / phantom-fired. */
    uint64_t gatedCycles() const { return gatedCycles_; }
    uint64_t phantomCycles() const { return phantomCycles_; }
    /** Cycles with a partial (issue-limit) throttle. */
    uint64_t throttledCycles() const { return throttledCycles_; }

  private:
    PidConfig cfg_;
    unsigned issueWidth_;
    std::vector<double> delayLine_;  ///< sensor + compute delay
    size_t head_ = 0;
    Rng rng_;
    double integral_ = 0.0;
    double prevError_ = 0.0;
    unsigned lastLevel_;
    uint64_t gatedCycles_ = 0;
    uint64_t phantomCycles_ = 0;
    uint64_t throttledCycles_ = 0;
};

} // namespace vguard::core

#endif // VGUARD_CORE_PID_CONTROLLER_HPP
