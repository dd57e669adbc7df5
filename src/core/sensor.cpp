#include "core/sensor.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace vguard::core {

ThresholdSensor::ThresholdSensor(const SensorConfig &cfg)
    : cfg_(cfg), rng_(cfg.seed), lastReading_(cfg.vNominal)
{
    // NaN passes both range rules below: a NaN vLow would never read
    // Low (protection silently lost) and a NaN noise magnitude would
    // run noiseless. An unbounded delay wraps the delay line's size.
    VGUARD_CHECK(std::isfinite(cfg_.vLow) && std::isfinite(cfg_.vHigh));
    VGUARD_CHECK(std::isfinite(cfg_.noiseMagnitude));
    VGUARD_CHECK(std::isfinite(cfg_.vNominal));
    VGUARD_CHECK(cfg_.delayCycles <= kMaxSensorDelayCycles);
    if (cfg_.vLow >= cfg_.vHigh)
        fatal("ThresholdSensor: vLow (%g) must be below vHigh (%g)",
              cfg_.vLow, cfg_.vHigh);
    if (cfg_.noiseMagnitude < 0.0)
        fatal("ThresholdSensor: negative noise magnitude");
    history_.assign(cfg_.delayCycles + 1, cfg_.vNominal);
}

VoltageLevel
ThresholdSensor::observe(double vNow)
{
    // Deposit the newest reading and pull the oldest (delay cycles
    // back). With delay 0 the buffer has one slot: write then read
    // returns vNow itself.
    history_[head_] = vNow;
    head_ = head_ + 1 == history_.size() ? 0 : head_ + 1;
    double reading = history_[head_];

    if (cfg_.noiseMagnitude > 0.0)
        reading += rng_.uniform(-cfg_.noiseMagnitude, cfg_.noiseMagnitude);
    lastReading_ = reading;
    ++observes_;

    const VoltageLevel level = classify(reading);
    if (level == VoltageLevel::Low)
        ++lowReadings_;
    else if (level == VoltageLevel::High)
        ++highReadings_;
    return level;
}

void
ThresholdSensor::appendStats(obs::Snapshot &out,
                             const std::string &prefix) const
{
    out.addCounter(prefix + ".observes", "sensor observations",
                   observes_);
    out.addCounter(prefix + ".low_readings", "observations reported Low",
                   lowReadings_);
    out.addCounter(prefix + ".high_readings",
                   "observations reported High", highReadings_);
    out.addGauge(prefix + ".last_reading",
                 "last delayed/noisy reading [V]", lastReading_);
}

} // namespace vguard::core
