/**
 * @file
 * Unit tests for the runtime-sized small-matrix toolkit (MatN) and the
 * N-state ZOH discretisation used by the third-order PDN model.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "linsys/matn.hpp"

namespace {

using namespace vguard::linsys;

MatN
fromRows(const std::vector<std::vector<double>> &rows)
{
    MatN m(static_cast<unsigned>(rows.size()));
    for (unsigned i = 0; i < m.size(); ++i)
        for (unsigned j = 0; j < m.size(); ++j)
            m.at(i, j) = rows[i][j];
    return m;
}

TEST(MatN, IdentityAndAccess)
{
    const MatN id = MatN::identity(3);
    EXPECT_DOUBLE_EQ(id.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(id.at(1, 2), 0.0);
    EXPECT_EQ(id.size(), 3u);
}

TEST(MatN, Arithmetic)
{
    const MatN a = fromRows({{1, 2}, {3, 4}});
    const MatN b = fromRows({{5, 6}, {7, 8}});
    const MatN sum = a + b;
    EXPECT_DOUBLE_EQ(sum.at(0, 0), 6.0);
    const MatN prod = a * b;
    EXPECT_DOUBLE_EQ(prod.at(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(prod.at(1, 1), 50.0);
    const MatN scaled = a * 2.0;
    EXPECT_DOUBLE_EQ(scaled.at(1, 0), 6.0);
    const MatN diff = b - a;
    EXPECT_DOUBLE_EQ(diff.at(0, 1), 4.0);
}

TEST(MatN, Apply)
{
    const MatN a = fromRows({{1, 2}, {3, 4}});
    const auto y = a.apply({1.0, -1.0});
    EXPECT_DOUBLE_EQ(y[0], -1.0);
    EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(MatN, InverseRoundTrip3x3)
{
    const MatN a = fromRows({{2, 1, 0}, {1, 3, 1}, {0, 1, 4}});
    const MatN id = a * a.inverse();
    for (unsigned i = 0; i < 3; ++i)
        for (unsigned j = 0; j < 3; ++j)
            EXPECT_NEAR(id.at(i, j), i == j ? 1.0 : 0.0, 1e-12);
}

TEST(MatN, InverseNeedsPivoting)
{
    // Zero on the diagonal forces a row swap.
    const MatN a = fromRows({{0, 1}, {1, 0}});
    const MatN inv = a.inverse();
    EXPECT_DOUBLE_EQ(inv.at(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(inv.at(0, 0), 0.0);
}

TEST(MatN, ExpmDiagonal)
{
    const MatN m = fromRows({{1.0, 0.0}, {0.0, -2.0}});
    const MatN e = expm(m);
    EXPECT_NEAR(e.at(0, 0), std::exp(1.0), 1e-12);
    EXPECT_NEAR(e.at(1, 1), std::exp(-2.0), 1e-12);
    EXPECT_NEAR(e.at(0, 1), 0.0, 1e-13);
}

TEST(MatN, ExpmRotation3x3Block)
{
    // Rotation block + isolated decay.
    const double w = 2.0;
    const MatN m = fromRows({{0, -w, 0}, {w, 0, 0}, {0, 0, -1}});
    const MatN e = expm(m);
    EXPECT_NEAR(e.at(0, 0), std::cos(w), 1e-12);
    EXPECT_NEAR(e.at(1, 0), std::sin(w), 1e-12);
    EXPECT_NEAR(e.at(2, 2), std::exp(-1.0), 1e-12);
}

TEST(MatN, SpectralRadiusDiagonal)
{
    const MatN m = fromRows({{0.5, 0.0}, {0.0, -0.9}});
    EXPECT_NEAR(m.spectralRadiusEstimate(), 0.9, 1e-3);
}

TEST(MatN, SpectralRadiusComplexPair)
{
    // Scaled rotation: eigenvalues 0.8 e^{±i}.
    const double r = 0.8, th = 1.0;
    const MatN m = fromRows({{r * std::cos(th), -r * std::sin(th)},
                             {r * std::sin(th), r * std::cos(th)}});
    EXPECT_NEAR(m.spectralRadiusEstimate(), 0.8, 1e-3);
}

TEST(MatN, SpectralRadiusBadlyScaled)
{
    // Similar to diag(1e6, 1e-6)-conjugated contraction: the balanced
    // estimate must not blow up.
    const double r = 0.99;
    MatN m = fromRows({{r, 1e6 * 0.001}, {0.0, 0.5}});
    EXPECT_NEAR(m.spectralRadiusEstimate(), r, 1e-2);
}

TEST(MatN, RejectsBadSize)
{
    EXPECT_DEATH({ MatN m(0); (void)m; }, "");
}

StateSpaceN
doubleLag()
{
    // Two cascaded unit lags driven by a single input:
    //   x0' = -x0 + u, x1' = -x1 + x0, y = x1.
    StateSpaceN ss(2, 1);
    ss.a.at(0, 0) = -1.0;
    ss.a.at(1, 0) = 1.0;
    ss.a.at(1, 1) = -1.0;
    ss.b[0] = 1.0;
    ss.c = {0.0, 1.0};
    ss.d = {0.0};
    return ss;
}

TEST(StateSpaceN, ZohStepConvergesToDcGain)
{
    const auto dss = DiscreteStateSpaceN::zoh(doubleLag(), 0.01);
    std::vector<double> x{0.0, 0.0};
    const std::vector<double> u{2.0};
    for (int i = 0; i < 5000; ++i)
        dss.next(x, u);
    EXPECT_NEAR(dss.output(x, u), 2.0, 1e-6); // unit DC gain * 2
}

TEST(StateSpaceN, MatchesFineEuler)
{
    const auto sys = doubleLag();
    const double dt = 0.05;
    const auto dss = DiscreteStateSpaceN::zoh(sys, dt);

    std::vector<double> x{0.3, -0.2};
    std::vector<double> fine = x;
    const std::vector<double> u{1.0};
    const int sub = 2000;
    for (int i = 0; i < sub; ++i) {
        const auto ax = sys.a.apply(fine);
        for (unsigned j = 0; j < 2; ++j)
            fine[j] += (ax[j] + sys.b[j] * u[0]) * (dt / sub);
    }
    dss.next(x, u);
    EXPECT_NEAR(x[0], fine[0], 1e-4);
    EXPECT_NEAR(x[1], fine[1], 1e-4);
}

TEST(StateSpaceN, StableEstimate)
{
    const auto dss = DiscreteStateSpaceN::zoh(doubleLag(), 0.1);
    EXPECT_LT(dss.spectralRadiusEstimate(), 1.0);
    EXPECT_GT(dss.spectralRadiusEstimate(), 0.5);
}

TEST(StateSpaceN, OutputFeedThrough)
{
    StateSpaceN ss(2, 2);
    ss.a.at(0, 0) = -1.0;
    ss.a.at(1, 1) = -1.0;
    ss.c = {0.0, 0.0};
    ss.d = {3.0, -2.0};
    const auto dss = DiscreteStateSpaceN::zoh(ss, 0.1);
    std::vector<double> x{0.0, 0.0};
    EXPECT_DOUBLE_EQ(dss.output(x, {1.0, 1.0}), 1.0);
}

// The 2-state case (the canonical package model's order), in closed
// form where one exists.

TEST(Mat2, Arithmetic)
{
    const MatN a = fromRows({{1, 2}, {3, 4}});
    const MatN b = fromRows({{5, 6}, {7, 8}});
    const MatN sum = a + b;
    EXPECT_DOUBLE_EQ(sum.at(0, 0), 6);
    EXPECT_DOUBLE_EQ(sum.at(1, 1), 12);
    const MatN prod = a * b;
    EXPECT_DOUBLE_EQ(prod.at(0, 0), 19);
    EXPECT_DOUBLE_EQ(prod.at(0, 1), 22);
    EXPECT_DOUBLE_EQ(prod.at(1, 0), 43);
    EXPECT_DOUBLE_EQ(prod.at(1, 1), 50);
}

TEST(Mat2, VectorProduct)
{
    const MatN a = fromRows({{1, 2}, {3, 4}});
    std::vector<double> y;
    a.applyInto({1.0, -1.0}, y);
    ASSERT_EQ(y.size(), 2u);
    EXPECT_DOUBLE_EQ(y[0], -1.0);
    EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(Mat2, InverseRoundTrip)
{
    const MatN a = fromRows({{2, 1}, {1, 3}});
    const MatN id = a * a.inverse();
    EXPECT_NEAR(id.at(0, 0), 1.0, 1e-14);
    EXPECT_NEAR(id.at(0, 1), 0.0, 1e-14);
    EXPECT_NEAR(id.at(1, 0), 0.0, 1e-14);
    EXPECT_NEAR(id.at(1, 1), 1.0, 1e-14);
}

TEST(Mat2, ExpmOfZeroIsIdentity)
{
    const MatN e = expm(MatN(2));
    EXPECT_NEAR(e.at(0, 0), 1.0, 1e-15);
    EXPECT_NEAR(e.at(0, 1), 0.0, 1e-15);
    EXPECT_NEAR(e.at(1, 1), 1.0, 1e-15);
}

TEST(Mat2, ExpmDiagonal)
{
    const MatN e = expm(fromRows({{1.0, 0.0}, {0.0, -2.0}}));
    EXPECT_NEAR(e.at(0, 0), std::exp(1.0), 1e-12);
    EXPECT_NEAR(e.at(1, 1), std::exp(-2.0), 1e-12);
    EXPECT_NEAR(e.at(0, 1), 0.0, 1e-13);
    EXPECT_NEAR(e.at(1, 0), 0.0, 1e-13);
}

TEST(Mat2, ExpmRotation)
{
    // exp([[0,-w],[w,0]]) is a rotation by w.
    const double w = 3.0;
    const MatN e = expm(fromRows({{0.0, -w}, {w, 0.0}}));
    EXPECT_NEAR(e.at(0, 0), std::cos(w), 1e-12);
    EXPECT_NEAR(e.at(0, 1), -std::sin(w), 1e-12);
    EXPECT_NEAR(e.at(1, 0), std::sin(w), 1e-12);
    EXPECT_NEAR(e.at(1, 1), std::cos(w), 1e-12);
}

TEST(Mat2, ExpmLargeArgumentScales)
{
    const MatN e = expm(fromRows({{-100.0, 0.0}, {0.0, -100.0}}));
    EXPECT_NEAR(e.at(0, 0), std::exp(-100.0), 1e-50);
}

TEST(Mat2, ExpmSumProperty)
{
    // Halves of one matrix commute, so exp(M) = exp(M/2)^2.
    const MatN m = fromRows({{-0.3, 1.2}, {-0.7, 0.1}});
    const MatN whole = expm(m);
    const MatN half = expm(m * 0.5);
    const MatN sq = half * half;
    for (unsigned i = 0; i < 2; ++i)
        for (unsigned j = 0; j < 2; ++j)
            EXPECT_NEAR(whole.at(i, j), sq.at(i, j), 1e-12);
}

// Two decoupled first-order lags, one input each, y = x0 + x1.
StateSpaceN
decoupledLags(double tau1, double tau2)
{
    StateSpaceN ss(2, 2);
    ss.a.at(0, 0) = -1.0 / tau1;
    ss.a.at(1, 1) = -1.0 / tau2;
    ss.b = {1.0 / tau1, 0.0, 0.0, 1.0 / tau2};
    ss.c = {1.0, 1.0};
    return ss;
}

TEST(StateSpace, ZohMatchesAnalyticFirstOrder)
{
    // Single lag x' = (-x + u)/tau discretised with ZOH:
    // x[k+1] = a x[k] + (1-a) u with a = exp(-dt/tau).
    const double tau = 2.0, dt = 0.1;
    const auto dss = DiscreteStateSpaceN::zoh(decoupledLags(tau, 1.0), dt);
    const double a = std::exp(-dt / tau);
    EXPECT_NEAR(dss.ad().at(0, 0), a, 1e-12);
    EXPECT_NEAR(dss.bd()[0], 1.0 - a, 1e-12);
}

TEST(StateSpace, StepConvergesToDcGain)
{
    const auto dss =
        DiscreteStateSpaceN::zoh(decoupledLags(1.0, 3.0), 0.05);
    std::vector<double> x{0.0, 0.0};
    const std::vector<double> u{2.0, -1.0};
    for (int i = 0; i < 4000; ++i)
        dss.next(x, u);
    // DC: each lag settles to its input; y = x0 + x1 = 2 - 1 = 1.
    EXPECT_NEAR(dss.output(x, u), 1.0, 1e-9);
}

TEST(StateSpace, SpectralRadiusStable)
{
    const auto dss =
        DiscreteStateSpaceN::zoh(decoupledLags(1.0, 2.0), 0.1);
    EXPECT_LT(dss.spectralRadiusEstimate(), 1.0);
    EXPECT_GT(dss.spectralRadiusEstimate(), 0.0);
}

TEST(StateSpace, SpectralRadiusComplexPair)
{
    // Lightly damped oscillator has a complex eigenpair.
    StateSpaceN ss(2, 2);
    ss.a = fromRows({{-0.1, -10.0}, {10.0, -0.1}});
    ss.b = {1.0, 0.0, 0.0, 1.0};
    ss.c = {1.0, 0.0};
    const auto dss = DiscreteStateSpaceN::zoh(ss, 0.01);
    EXPECT_NEAR(dss.spectralRadiusEstimate(), std::exp(-0.1 * 0.01),
                1e-9);
}

// Property sweep: ZOH of a damped oscillator over six decades of
// natural frequency stays stable and matches fine-step Euler.
class ZohSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(ZohSweep, MatchesFineEuler)
{
    const double wn = GetParam(); // natural frequency [rad/s]
    const double zeta = 0.3;
    // x0' = x1, x1' = -wn^2 x0 - 2 zeta wn x1 + u.
    StateSpaceN ss(2, 1);
    ss.a.at(0, 1) = 1.0;
    ss.a.at(1, 0) = -wn * wn;
    ss.a.at(1, 1) = -2.0 * zeta * wn;
    ss.b[1] = 1.0;
    ss.c = {1.0, 0.0};

    const double dt = 0.05 / wn;
    const auto dss = DiscreteStateSpaceN::zoh(ss, dt);
    EXPECT_LT(dss.spectralRadiusEstimate(), 1.0);

    // One coarse step against 1000 Euler substeps, constant u.
    const std::vector<double> u{1.0};
    std::vector<double> x{0.2, -0.1};
    std::vector<double> fine = x;
    const int sub = 1000;
    for (int i = 0; i < sub; ++i) {
        const auto ax = ss.a.apply(fine);
        for (unsigned j = 0; j < 2; ++j)
            fine[j] += (ax[j] + ss.b[j] * u[0]) * (dt / sub);
    }
    dss.next(x, u);
    for (unsigned j = 0; j < 2; ++j)
        EXPECT_NEAR(x[j], fine[j],
                    1e-3 * std::max(1.0, std::fabs(fine[j])));
}

INSTANTIATE_TEST_SUITE_P(Frequencies, ZohSweep,
                         ::testing::Values(0.5, 2.0, 10.0, 100.0, 1e4,
                                           1e6));

} // namespace
