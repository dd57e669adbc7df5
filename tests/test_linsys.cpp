/**
 * @file
 * Unit and property tests for src/linsys: Mat2 algebra, matrix
 * exponential, ZOH discretisation, signal builders and the bang-bang
 * worst-case analysis.
 */

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linsys/mat2.hpp"
#include "linsys/state_space.hpp"
#include "linsys/worst_case.hpp"

namespace {

using namespace vguard::linsys;

TEST(Mat2, Arithmetic)
{
    const Mat2 a{1, 2, 3, 4};
    const Mat2 b{5, 6, 7, 8};
    const Mat2 sum = a + b;
    EXPECT_DOUBLE_EQ(sum.a, 6);
    EXPECT_DOUBLE_EQ(sum.d, 12);
    const Mat2 prod = a * b;
    EXPECT_DOUBLE_EQ(prod.a, 19);
    EXPECT_DOUBLE_EQ(prod.b, 22);
    EXPECT_DOUBLE_EQ(prod.c, 43);
    EXPECT_DOUBLE_EQ(prod.d, 50);
}

TEST(Mat2, VectorProduct)
{
    const Mat2 a{1, 2, 3, 4};
    const Vec2 v = a * Vec2{1.0, -1.0};
    EXPECT_DOUBLE_EQ(v.x, -1.0);
    EXPECT_DOUBLE_EQ(v.y, -1.0);
}

TEST(Mat2, TraceDet)
{
    const Mat2 a{2, 1, 1, 3};
    EXPECT_DOUBLE_EQ(a.trace(), 5.0);
    EXPECT_DOUBLE_EQ(a.det(), 5.0);
}

TEST(Mat2, InverseRoundTrip)
{
    const Mat2 a{2, 1, 1, 3};
    const Mat2 id = a * a.inverse();
    EXPECT_NEAR(id.a, 1.0, 1e-14);
    EXPECT_NEAR(id.b, 0.0, 1e-14);
    EXPECT_NEAR(id.c, 0.0, 1e-14);
    EXPECT_NEAR(id.d, 1.0, 1e-14);
}

TEST(Mat2, ExpmOfZeroIsIdentity)
{
    const Mat2 e = expm(Mat2::zero());
    EXPECT_NEAR(e.a, 1.0, 1e-15);
    EXPECT_NEAR(e.b, 0.0, 1e-15);
    EXPECT_NEAR(e.d, 1.0, 1e-15);
}

TEST(Mat2, ExpmDiagonal)
{
    const Mat2 m{1.0, 0.0, 0.0, -2.0};
    const Mat2 e = expm(m);
    EXPECT_NEAR(e.a, std::exp(1.0), 1e-12);
    EXPECT_NEAR(e.d, std::exp(-2.0), 1e-12);
    EXPECT_NEAR(e.b, 0.0, 1e-13);
    EXPECT_NEAR(e.c, 0.0, 1e-13);
}

TEST(Mat2, ExpmRotation)
{
    // exp([[0,-w],[w,0]] t) is a rotation by w*t.
    const double w = 3.0;
    const Mat2 e = expm(Mat2{0.0, -w, w, 0.0});
    EXPECT_NEAR(e.a, std::cos(w), 1e-12);
    EXPECT_NEAR(e.b, -std::sin(w), 1e-12);
    EXPECT_NEAR(e.c, std::sin(w), 1e-12);
    EXPECT_NEAR(e.d, std::cos(w), 1e-12);
}

TEST(Mat2, ExpmLargeArgumentScales)
{
    const Mat2 e = expm(Mat2{-100.0, 0.0, 0.0, -100.0});
    EXPECT_NEAR(e.a, std::exp(-100.0), 1e-50);
}

TEST(Mat2, ExpmSumProperty)
{
    // For commuting matrices (same matrix halves): exp(M) =
    // exp(M/2)^2.
    const Mat2 m{-0.3, 1.2, -0.7, 0.1};
    const Mat2 whole = expm(m);
    const Mat2 half = expm(m * 0.5);
    const Mat2 sq = half * half;
    EXPECT_NEAR(whole.a, sq.a, 1e-12);
    EXPECT_NEAR(whole.b, sq.b, 1e-12);
    EXPECT_NEAR(whole.c, sq.c, 1e-12);
    EXPECT_NEAR(whole.d, sq.d, 1e-12);
}

// A simple scalar-like test system: two decoupled first-order lags.
StateSpace2
decoupledLags(double tau1, double tau2)
{
    StateSpace2 ss;
    ss.a = {-1.0 / tau1, 0.0, 0.0, -1.0 / tau2};
    ss.b = {1.0 / tau1, 0.0, 0.0, 1.0 / tau2};
    ss.c = {1.0, 1.0};
    ss.d = {0.0, 0.0};
    return ss;
}

TEST(StateSpace, ZohMatchesAnalyticFirstOrder)
{
    // Single lag x' = (-x + u)/tau discretised with ZOH:
    // x[k+1] = a x[k] + (1-a) u with a = exp(-dt/tau).
    const double tau = 2.0, dt = 0.1;
    const auto dss = DiscreteStateSpace2::zoh(decoupledLags(tau, 1.0), dt);
    const double a = std::exp(-dt / tau);
    EXPECT_NEAR(dss.ad().a, a, 1e-12);
    EXPECT_NEAR(dss.bd().a, 1.0 - a, 1e-12);
}

TEST(StateSpace, StepConvergesToDcGain)
{
    const auto dss =
        DiscreteStateSpace2::zoh(decoupledLags(1.0, 3.0), 0.05);
    Vec2 x{0.0, 0.0};
    const Vec2 u{2.0, -1.0};
    for (int i = 0; i < 4000; ++i)
        x = dss.next(x, u);
    // DC: each lag settles to its input; y = x1 + x2 = 2 - 1 = 1.
    EXPECT_NEAR(dss.output(x, u), 1.0, 1e-9);
}

TEST(StateSpace, SimulateProducesPerStepOutputs)
{
    const auto dss =
        DiscreteStateSpace2::zoh(decoupledLags(1.0, 1.0), 0.1);
    Vec2 x{0.0, 0.0};
    const std::vector<Vec2> inputs(10, Vec2{1.0, 0.0});
    const auto ys = dss.simulate(x, inputs);
    ASSERT_EQ(ys.size(), 10u);
    EXPECT_DOUBLE_EQ(ys[0], 0.0);      // zero state, no feedthrough
    EXPECT_GT(ys[9], ys[1]);           // rising toward DC gain
}

TEST(StateSpace, SpectralRadiusStable)
{
    const auto dss =
        DiscreteStateSpace2::zoh(decoupledLags(1.0, 2.0), 0.1);
    EXPECT_LT(dss.spectralRadius(), 1.0);
    EXPECT_GT(dss.spectralRadius(), 0.0);
}

TEST(StateSpace, SpectralRadiusComplexPair)
{
    // Lightly damped oscillator has a complex eigenpair.
    StateSpace2 ss;
    ss.a = {-0.1, -10.0, 10.0, -0.1};
    ss.b = {1.0, 0.0, 0.0, 1.0};
    ss.c = {1.0, 0.0};
    ss.d = {0.0, 0.0};
    const auto dss = DiscreteStateSpace2::zoh(ss, 0.01);
    const double rho = dss.spectralRadius();
    EXPECT_NEAR(rho, std::exp(-0.1 * 0.01), 1e-9);
}

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

// Property sweep: ZOH discretisation of a stable oscillator stays
// stable and matches a fine-step Euler integration.
class ZohSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ZohSweep, MatchesFineEuler)
{
    const double wn = GetParam(); // natural frequency [rad/s]
    StateSpace2 ss;
    const double zeta = 0.3;
    // Canonical second-order: x1' = x2, x2' = -wn^2 x1 - 2 zeta wn x2 + u
    ss.a = {0.0, 1.0, -wn * wn, -2.0 * zeta * wn};
    ss.b = {0.0, 0.0, 1.0, 0.0};
    ss.c = {1.0, 0.0};
    ss.d = {0.0, 0.0};

    const double dt = 0.05 / wn;
    const auto dss = DiscreteStateSpace2::zoh(ss, dt);
    EXPECT_LT(dss.spectralRadius(), 1.0);

    // Integrate one coarse step with 1000 Euler substeps, constant u.
    const Vec2 u{1.0, 0.0};
    Vec2 x{0.2, -0.1};
    Vec2 fine = x;
    const int sub = 1000;
    const double h = dt / sub;
    for (int i = 0; i < sub; ++i)
        fine += (ss.a * fine + ss.b * u) * h;
    const Vec2 coarse = dss.next(x, u);
    EXPECT_NEAR(coarse.x, fine.x, 1e-3 * std::max(1.0, std::fabs(fine.x)));
    EXPECT_NEAR(coarse.y, fine.y, 1e-3 * std::max(1.0, std::fabs(fine.y)));
}

INSTANTIATE_TEST_SUITE_P(Frequencies, ZohSweep,
                         ::testing::Values(0.5, 2.0, 10.0, 100.0, 1e4,
                                           1e6));

} // namespace
