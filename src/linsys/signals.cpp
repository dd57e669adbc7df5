#include "linsys/signals.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace vguard::linsys {

std::vector<double>
constantSignal(size_t len, double value)
{
    return std::vector<double>(len, value);
}

std::vector<double>
pulseSignal(size_t len, double baseline, double high, size_t start,
            size_t width)
{
    std::vector<double> s(len, baseline);
    for (size_t i = start; i < std::min(len, start + width); ++i)
        s[i] = high;
    return s;
}

std::vector<double>
pulseTrainSignal(size_t len, double baseline, double high, size_t start,
                 size_t width, size_t period)
{
    if (period == 0)
        fatal("pulseTrainSignal: period must be non-zero");
    std::vector<double> s(len, baseline);
    for (size_t t = start; t < len; t += period)
        for (size_t i = t; i < std::min(len, t + width); ++i)
            s[i] = high;
    return s;
}

} // namespace vguard::linsys
