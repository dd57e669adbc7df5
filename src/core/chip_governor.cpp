#include "core/chip_governor.hpp"

#include <algorithm>
#include <cmath>

#include "util/compiler.hpp"
#include "util/logging.hpp"

namespace vguard::core {

ChipGovernor::ChipGovernor(const ChipGovernorConfig &cfg, size_t cores,
                           double vNominal, double band)
    : cfg_(cfg), vRef_(cfg.vRefFrac * vNominal),
      errScale_(1.0 / (band * vNominal)), budget_(cores),
      ewma_(cores, 0.0), order_(cores)
{
    VGUARD_CHECK(cores >= 1);
    VGUARD_CHECK(std::isfinite(vNominal) && vNominal > 0.0);
    VGUARD_CHECK(std::isfinite(band) && band > 0.0);
    VGUARD_CHECK(std::isfinite(cfg.kp) && cfg.kp >= 0.0);
    VGUARD_CHECK(std::isfinite(cfg.ki) && cfg.ki >= 0.0);
    VGUARD_CHECK(std::isfinite(cfg.integralClamp) &&
                 cfg.integralClamp >= 0.0);
    VGUARD_CHECK(cfg.ewmaAlpha > 0.0 && cfg.ewmaAlpha <= 1.0);
}

void
ChipGovernor::observe(double vNow, const double *coreAmps)
{
    const size_t n = ewma_.size();
    // Constants hoisted and pointers unaliased, so the compiler may
    // vectorise the loop; it is elementwise, so that changes no byte.
    const double keep = 1.0 - cfg_.ewmaAlpha;
    const double alpha = cfg_.ewmaAlpha;
    double *VGUARD_RESTRICT ewma = ewma_.data();
    const double *VGUARD_RESTRICT amps = coreAmps;
    for (size_t i = 0; i < n; ++i)
        ewma[i] = keep * ewma[i] + alpha * amps[i];

    // Normalized error: +1.0 when the rail sits a full emergency band
    // below the setpoint. Positive error (droop) grows the budget.
    const double err = (vRef_ - vNow) * errScale_;
    integral_ = std::clamp(integral_ + err, -cfg_.integralClamp,
                           cfg_.integralClamp);
    const double u = cfg_.kp * err + cfg_.ki * integral_;
    const double slots = std::floor(u * static_cast<double>(n) + 0.5);
    budget_ = slots <= 0.0 ? 0
              : slots >= static_cast<double>(n)
                  ? n
                  : static_cast<size_t>(slots);
}

void
ChipGovernor::arbitrate(const std::vector<uint8_t> &gateRequest,
                        std::vector<uint8_t> &grant)
{
    const size_t n = ewma_.size();
    VGUARD_CHECK(gateRequest.size() == n);
    grant.assign(n, 0);

    size_t requesters = 0;
    for (size_t i = 0; i < n; ++i)
        if (gateRequest[i] != 0)
            order_[requesters++] = i;
    if (requesters == 0)
        return;

    // The local loop keeps its authority: the governor bounds how many
    // throttle together, never whether anyone may respond at all.
    const size_t slots = std::min(std::max<size_t>(budget_, 1),
                                  requesters);

    // The hungriest requesters (largest draw EWMA) win, the lower
    // index on equal EWMAs. That order is strict, so the top `slots`
    // are one set, and nth_element finds it in place without sorting.
    if (slots < requesters)
        std::nth_element(order_.begin(), order_.begin() + slots,
                         order_.begin() + requesters,
                         [&](size_t a, size_t b) {
                             return ewma_[a] > ewma_[b] ||
                                    (ewma_[a] == ewma_[b] && a < b);
                         });
    for (size_t s = 0; s < slots; ++s)
        grant[order_[s]] = 1;
}

} // namespace vguard::core
