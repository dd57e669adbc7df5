/**
 * @file
 * Electrical model of a processor power-delivery network.
 *
 * Topology (the standard VRM → bulk-decap → package → die hierarchy of
 * Smith et al., which the paper cites for supply design methodology):
 *
 *   Vdd ──R_vrm──┬──R_pkg──L_pkg──┬───────────── die node (v_die)
 *                │                │        │
 *              C_bulk           C_die    I_cpu (current sink)
 *                │                │
 *               GND             R_esr
 *                                │
 *                               GND
 *
 * - R_vrm + R_pkg = 0.5 mΩ: the paper's DC resistance.
 * - L_pkg resonates with C_die near f₀ = 50 MHz; the resonance is
 *   damped only by the loop resistances R_pkg + R_esr (≈ 0.25 mΩ) —
 *   the VRM-side path is decoupled by the bulk capacitance, exactly
 *   why real packages show underdamped mid-frequency peaks (the
 *   paper's Fig. 2 and its 50-200 MHz "troubling range").
 * - C_bulk ≫ C_die keeps the bulk corner (~300 kHz) far below f₀.
 *
 * PackageModel::design() solves (f₀, Z_peak) → (L, C) so experiments
 * are phrased, like the paper, in terms of resonant frequency and
 * percent-of-target-impedance.
 */

#ifndef VGUARD_PDN_PACKAGE_MODEL_HPP
#define VGUARD_PDN_PACKAGE_MODEL_HPP

#include <complex>

#include "linsys/matn.hpp"

namespace vguard::pdn {

/** Physical parameters of the PDN model. */
struct PackageParams
{
    double rVrm = 0.35e-3;   ///< VRM-side series resistance [Ω]
    double rPkg = 0.15e-3;   ///< package loop resistance [Ω]
    double rEsr = 0.10e-3;   ///< die-decap ESR [Ω]
    double lPkg = 3e-12;     ///< package loop inductance [H]
    double cDie = 3e-6;      ///< die decoupling capacitance [F]
    double cBulk = 3e-4;     ///< bulk decoupling capacitance [F]
    double vNominal = 1.0;   ///< nominal die voltage [V]
    double clockHz = 3e9;    ///< CPU clock used for discretisation [Hz]

    /** Total DC path resistance (paper: 0.5 mΩ). */
    double rDc() const { return rVrm + rPkg; }
    /** Resonant-loop damping resistance. */
    double rDamp() const { return rPkg + rEsr; }
};

/** Analysis + construction facade over PackageParams. */
class PackageModel
{
  public:
    /**
     * VGUARD_CHECKs @p params: every field finite, rVrm, L, both C,
     * vNominal and clockHz positive, rPkg and rEsr non-negative, and a
     * damped resonant loop. Every rail is built on a PackageModel, so
     * this is the one place PackageParams are validated.
     */
    explicit PackageModel(const PackageParams &params);

    /**
     * Design a package with the requested resonant frequency and peak
     * impedance (the knobs the paper sweeps).
     *
     * @param f0Hz       Target resonant frequency [Hz] (paper: 50 MHz).
     * @param zPeakOhms  Target peak impedance [Ω].
     * @param rDc        DC resistance [Ω] (paper: 0.5 mΩ).
     * @param rDamp      Resonant-loop damping resistance [Ω].
     * @param clockHz    CPU clock frequency [Hz] (paper: 3 GHz).
     * @param vNominal   Nominal voltage [V] (paper: 1.0 V).
     */
    static PackageModel design(double f0Hz, double zPeakOhms,
                               double rDc = 0.5e-3,
                               double rDamp = 0.25e-3,
                               double clockHz = 3e9,
                               double vNominal = 1.0);

    /**
     * The paper's reference package: 50 MHz resonance, 0.5 mΩ DC,
     * 3 GHz clock, with peak impedance = @p impedanceScale × zTarget.
     */
    static PackageModel paperReference(double zTargetOhms,
                                       double impedanceScale = 1.0);

    /** Complex die-node impedance at frequency @p hz. */
    std::complex<double> impedance(double hz) const;

    /** |Z| at frequency @p hz. */
    double impedanceMag(double hz) const;

    /** Numerically locate the impedance peak (golden-section refine). */
    double peakImpedance() const;

    /** Frequency of the impedance peak [Hz]. */
    double resonantFrequencyHz() const;

    /** Resonant period expressed in CPU cycles (rounded). */
    unsigned resonantPeriodCycles() const;

    /** Undamped natural frequency 1/(2π√(L·C_die)) [Hz]. */
    double naturalFrequencyHz() const;

    /** Quality factor ω₀L / (R_pkg + R_esr). */
    double qualityFactor() const;

    /**
     * Continuous state space with x = [v_bulk, i_L, v_die_cap],
     * u = [Vdd, I_cpu], y = v_die.
     */
    linsys::StateSpaceN stateSpace() const;

    /** Discrete (ZOH at the CPU clock) state space. */
    linsys::DiscreteStateSpaceN discrete() const;

    const PackageParams &params() const { return params_; }

  private:
    PackageParams params_;
};

} // namespace vguard::pdn

#endif // VGUARD_PDN_PACKAGE_MODEL_HPP
