/**
 * @file
 * Unit tests for src/linsys's signal builders and the bang-bang
 * worst-case analysis (the matrix algebra and ZOH are in
 * test_matn.cpp).
 */

#include <vector>

#include <gtest/gtest.h>

#include "linsys/signals.hpp"
#include "linsys/worst_case.hpp"

namespace {

using namespace vguard::linsys;

TEST(Signals, Constant)
{
    const auto s = constantSignal(5, 3.0);
    ASSERT_EQ(s.size(), 5u);
    for (double v : s)
        EXPECT_DOUBLE_EQ(v, 3.0);
}

TEST(Signals, Pulse)
{
    const auto s = pulseSignal(10, 1.0, 9.0, 3, 4);
    EXPECT_DOUBLE_EQ(s[2], 1.0);
    EXPECT_DOUBLE_EQ(s[3], 9.0);
    EXPECT_DOUBLE_EQ(s[6], 9.0);
    EXPECT_DOUBLE_EQ(s[7], 1.0);
}

TEST(Signals, PulseClampedToLength)
{
    const auto s = pulseSignal(5, 0.0, 1.0, 3, 10);
    EXPECT_DOUBLE_EQ(s[4], 1.0);
    EXPECT_EQ(s.size(), 5u);
}

TEST(Signals, PulseTrain)
{
    const auto s = pulseTrainSignal(12, 0.0, 1.0, 0, 2, 4);
    // Pattern: 1 1 0 0 | 1 1 0 0 | 1 1 0 0
    for (size_t t = 0; t < s.size(); ++t)
        EXPECT_DOUBLE_EQ(s[t], (t % 4) < 2 ? 1.0 : 0.0) << "t=" << t;
}

TEST(WorstCase, AllNegativeKernel)
{
    const std::vector<double> h{-1.0, -0.5, -0.25};
    const auto wc = bangBangWorstCase(h, 0.0, 2.0);
    EXPECT_DOUBLE_EQ(wc.minOutput, -3.5); // all taps at hi
    EXPECT_DOUBLE_EQ(wc.maxOutput, 0.0);  // all taps at lo
    for (double u : wc.minInput)
        EXPECT_DOUBLE_EQ(u, 2.0);
}

TEST(WorstCase, MixedSignKernel)
{
    const std::vector<double> h{-1.0, 0.5};
    const auto wc = bangBangWorstCase(h, 1.0, 3.0);
    // min: -1*3 + 0.5*1 = -2.5 ; max: -1*1 + 0.5*3 = 0.5
    EXPECT_DOUBLE_EQ(wc.minOutput, -2.5);
    EXPECT_DOUBLE_EQ(wc.maxOutput, 0.5);
    // Input sequence is time-reversed kernel sign pattern: u[0] pairs
    // with h[1].
    EXPECT_DOUBLE_EQ(wc.minInput[0], 1.0);
    EXPECT_DOUBLE_EQ(wc.minInput[1], 3.0);
}

TEST(WorstCase, ReplayAchievesBound)
{
    // Convolving the extremal input with the kernel must reproduce the
    // reported extreme at the final sample.
    const std::vector<double> h{-1.0, 0.7, -0.3, 0.1};
    const auto wc = bangBangWorstCase(h, -2.0, 5.0);
    double y = 0.0;
    const size_t k = h.size();
    for (size_t j = 0; j < k; ++j)
        y += h[j] * wc.minInput[k - 1 - j];
    EXPECT_NEAR(y, wc.minOutput, 1e-12);
}

TEST(WorstCase, DegenerateEqualBounds)
{
    const std::vector<double> h{-1.0, 0.5};
    const auto wc = bangBangWorstCase(h, 2.0, 2.0);
    EXPECT_DOUBLE_EQ(wc.minOutput, wc.maxOutput);
    EXPECT_DOUBLE_EQ(wc.minOutput, -1.0); // (-1+0.5)*2
}

TEST(WorstCase, L1Norm)
{
    EXPECT_DOUBLE_EQ(l1Norm({1.0, -2.0, 3.0}), 6.0);
    EXPECT_DOUBLE_EQ(l1Norm({}), 0.0);
}

TEST(WorstCase, ResonantSquareWave)
{
    const auto s = resonantSquareWave(8, 2, 0.0, 1.0);
    const std::vector<double> expect{1, 1, 0, 0, 1, 1, 0, 0};
    for (size_t i = 0; i < s.size(); ++i)
        EXPECT_DOUBLE_EQ(s[i], expect[i]);
}

} // namespace
