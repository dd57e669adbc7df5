/**
 * @file
 * Threshold voltage sensor (paper Section 4).
 *
 * The sensor does *not* digitise the voltage — it reports one of three
 * levels (Low / Normal / High) by comparing a delayed, noisy reading
 * against two thresholds, which is what makes it implementable with
 * bandgap references or inverter-chain detectors in 1-2 cycles
 * (Section 4.2).
 *
 * Delay is modeled as a ring buffer of past readings; error as
 * bounded white noise added to the reading, uniform on [-e, +e] per
 * the Section 4.5 error model. Threshold compensation for error —
 * "correspondingly lowering and raising the threshold by the
 * potential error" — is applied by the threshold solver, not here;
 * it is exact only because the error has a hard bound.
 */

#ifndef VGUARD_CORE_SENSOR_HPP
#define VGUARD_CORE_SENSOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace vguard::core {

/** Three-level sensor output. */
enum class VoltageLevel : uint8_t { Low, Normal, High };

/**
 * Longest sensor delay a sensor, the threshold solver or a RunSpec
 * accepts [cycles]. The paper sweeps 0-6 and one resonance period of
 * the reference package is 60 cycles, so this is far past any useful
 * delay, yet it keeps every `delay + 1` delay-line size from wrapping
 * (UINT_MAX + 1 == 0) or ballooning.
 */
constexpr unsigned kMaxSensorDelayCycles = 1024;

/** Sensor parameters. */
struct SensorConfig
{
    double vLow = 0.0;          ///< low threshold [V]
    double vHigh = 1e9;         ///< high threshold [V]
    /** Reading age (0..6 in the paper; at most kMaxSensorDelayCycles). */
    unsigned delayCycles = 1;
    /** Reading error bound e [V]: each reading is off by U(-e, +e). */
    double noiseMagnitude = 0.0;
    uint64_t seed = 0x5e11507;  ///< noise stream seed
    double vNominal = 1.0;      ///< initial delay-line fill [V]
};

/** The threshold sensor. */
class ThresholdSensor
{
  public:
    explicit ThresholdSensor(const SensorConfig &cfg);

    /**
     * Push this cycle's true die voltage; returns the level of the
     * delayed, noisy reading the control logic sees.
     */
    VoltageLevel observe(double vNow);

    /**
     * The level of @p reading against the thresholds: Low below vLow,
     * High above vHigh, else Normal. observe() classifies through it,
     * and a shared-rail chip classifies each core's noisy reading of
     * one delay line with it.
     */
    VoltageLevel
    classify(double reading) const
    {
        if (reading < cfg_.vLow)
            return VoltageLevel::Low;
        if (reading > cfg_.vHigh)
            return VoltageLevel::High;
        return VoltageLevel::Normal;
    }

    /** The raw (noisy, delayed) reading behind the last observe(). */
    double lastReading() const { return lastReading_; }

    /**
     * Append sensor telemetry to @p out: observation/level counters
     * and the last raw reading under `<prefix>.`.
     */
    void appendStats(obs::Snapshot &out,
                     const std::string &prefix) const;

  private:
    SensorConfig cfg_;
    std::vector<double> history_;  ///< delay line (delay + 1 readings)
    size_t head_ = 0;
    Rng rng_;
    double lastReading_ = 0.0;
    uint64_t observes_ = 0;
    uint64_t lowReadings_ = 0;
    uint64_t highReadings_ = 0;
};

} // namespace vguard::core

#endif // VGUARD_CORE_SENSOR_HPP
