/**
 * @file
 * Control-theoretic threshold solver (paper Section 4.3, Table 3).
 *
 * Given the package model, the processor's reachable current range
 * [iMin, iMax], the allowed voltage band and the sensor delay/error,
 * the solver finds the *widest safe operating window*: the lowest
 * voltage-low threshold and the highest voltage-high threshold such
 * that a threshold controller with an ideal actuator (clamp current to
 * iMin on Low, to iMax on High) keeps the die voltage inside the band
 * against adversarial worst-case current demands.
 *
 * This replaces the paper's MATLAB/Simulink flow (Fig. 12/13): the
 * closed loop is simulated against a suite of worst-case scenarios
 * (resonant square waves, detuned squares, the exact open-loop
 * bang-bang input, and step attacks), and each threshold is found by
 * bisection — safety is monotone in the threshold margin.
 */

#ifndef VGUARD_CORE_THRESHOLD_SOLVER_HPP
#define VGUARD_CORE_THRESHOLD_SOLVER_HPP

#include "pdn/package_model.hpp"
#include "pdn/pdn_backend.hpp"

namespace vguard::core {

/** Inputs to the solver. */
struct ThresholdSpec
{
    double f0Hz = 50e6;        ///< package resonance
    double zPeakOhms = 2e-3;   ///< package peak impedance
    double rDc = 0.5e-3;
    double rDamp = 0.25e-3;
    double clockHz = 3e9;
    double vNominal = 1.0;
    double band = 0.05;        ///< allowed fractional swing
    double iMin = 0.0;         ///< adversary (program) minimum [A]
    double iMax = 0.0;         ///< adversary (program) maximum [A]
    double iGate = -1.0;       ///< fully-gated current (default iMin)
    double iPhantom = -1.0;    ///< phantom-fire current (default iMax)
    double iTrim = -1.0;       ///< regulator trim point (default iGate)
    /** Sensor/controller loop delay (at most kMaxSensorDelayCycles). */
    unsigned delayCycles = 0;
    double sensorError = 0.0;  ///< bounded reading error [V]
    double guardBandV = 0.0;   ///< extra safety margin inside the band

    /**
     * Stepping engine for the adversarial scenario suite. Batched runs
     * all scenarios as lock-stepped lanes of one pdn::PdnBackend, one
     * stepPerLane cycle at a time. Scalar runs the scenarios one
     * after another, each through its own PdnSim::step loop, so it
     * stays an independent reference for the batched path: the two
     * are bit-identical (same per-lane arithmetic order, and min/max
     * merging commutes), as tests/test_backend_diff.cpp asserts.
     */
    pdn::BackendKind engine = pdn::BackendKind::Batched;
};

/** Solver output. */
struct Thresholds
{
    double vLow = 0.0;
    double vHigh = 0.0;
    bool feasibleLow = false;   ///< a safe low threshold exists
    bool feasibleHigh = false;

    double safeWindowV() const { return vHigh - vLow; }
};

/** Solve for the widest safe thresholds under @p spec. */
Thresholds solveThresholds(const ThresholdSpec &spec);

/**
 * Worst-case voltage extremes of the *closed loop* under the given
 * thresholds (exposed for verification/tests): returns the lowest and
 * highest voltage reached across the adversarial scenario suite.
 */
void closedLoopExtremes(const ThresholdSpec &spec, double vLow,
                        double vHigh, double &vMinOut, double &vMaxOut);

} // namespace vguard::core

#endif // VGUARD_CORE_THRESHOLD_SOLVER_HPP
