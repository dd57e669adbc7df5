#include "pdn/impulse.hpp"

#include <algorithm>
#include <cmath>

#include "util/logging.hpp"

namespace vguard::pdn {

std::vector<double>
impulseResponse(const PackageModel &model)
{
    constexpr double relTol = 1e-9;
    constexpr size_t maxTaps = size_t{1} << 15;
    const auto dss = model.discrete();
    std::vector<double> x(dss.states(), 0.0);

    std::vector<double> h;
    h.reserve(1024);

    // Cycle 0: the 1 A pulse is applied (Vdd channel zeroed so the
    // output is a pure deviation).
    std::vector<double> u{0.0, 1.0};
    h.push_back(dss.output(x, u));
    dss.next(x, u);

    double peak = std::fabs(h[0]);
    u = {0.0, 0.0};
    // Extend until the recent window sits far below the peak tap, i.e.
    // the response has visibly settled.
    const size_t window = 128;
    size_t quiet = 0;
    while (h.size() < maxTaps) {
        const double y = dss.output(x, u);
        dss.next(x, u);
        h.push_back(y);
        peak = std::max(peak, std::fabs(y));
        if (std::fabs(y) < relTol * peak) {
            if (++quiet >= window)
                break;
        } else {
            quiet = 0;
        }
    }
    if (h.size() >= maxTaps)
        warn("impulseResponse: kernel truncated at %zu taps "
             "(slow-settling package)",
             h.size());
    return h;
}

std::vector<double>
stepResponse(const PackageModel &model, size_t cycles)
{
    const auto dss = model.discrete();
    std::vector<double> x(dss.states(), 0.0);
    std::vector<double> out;
    out.reserve(cycles);
    const std::vector<double> u{0.0, 1.0};
    for (size_t t = 0; t < cycles; ++t) {
        out.push_back(dss.output(x, u));
        dss.next(x, u);
    }
    return out;
}

Convolver::Convolver(std::vector<double> impulse, double vdd, double iBias)
    : kernel_(std::move(impulse)), history_(kernel_.size(), iBias),
      vdd_(vdd), iBias_(iBias)
{
    if (kernel_.empty())
        fatal("Convolver: empty impulse response");
}

double
Convolver::step(double amps)
{
    // Advance the ring and deposit the newest sample.
    head_ = head_ + 1 == history_.size() ? 0 : head_ + 1;
    history_[head_] = amps;

    // v = vdd + sum_k h[k] * I(t-k); walk backwards from the head.
    double acc = 0.0;
    size_t idx = head_;
    const size_t n = kernel_.size();
    for (size_t k = 0; k < n; ++k) {
        acc += kernel_[k] * history_[idx];
        idx = idx == 0 ? n - 1 : idx - 1;
    }
    return vdd_ + acc;
}

void
Convolver::reset()
{
    std::fill(history_.begin(), history_.end(), iBias_);
    head_ = 0;
}

} // namespace vguard::pdn
