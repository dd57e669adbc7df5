#include "pdn/package_model.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace vguard::pdn {

namespace {
constexpr double kTwoPi = 6.283185307179586;
constexpr double kBulkRatio = 100.0;  ///< C_bulk / C_die in design()
} // namespace

PackageModel::PackageModel(const PackageParams &params) : params_(params)
{
    // The one PackageParams check: every rail (PdnSim, VoltageSim,
    // both PdnBackend engines, runChips) is built on a
    // PackageModel. NaN passes every `x <= 0` test, so each field must
    // be finite before its range rule means anything.
    const PackageParams &p = params_;
    VGUARD_CHECK(std::isfinite(p.rVrm) && p.rVrm > 0.0);
    VGUARD_CHECK(std::isfinite(p.rPkg) && p.rPkg >= 0.0);
    VGUARD_CHECK(std::isfinite(p.rEsr) && p.rEsr >= 0.0);
    VGUARD_CHECK(std::isfinite(p.lPkg) && p.lPkg > 0.0);
    VGUARD_CHECK(std::isfinite(p.cDie) && p.cDie > 0.0);
    VGUARD_CHECK(std::isfinite(p.cBulk) && p.cBulk > 0.0);
    VGUARD_CHECK(std::isfinite(p.vNominal) && p.vNominal > 0.0);
    VGUARD_CHECK(std::isfinite(p.clockHz) && p.clockHz > 0.0);
    // The resonant loop needs non-zero damping.
    VGUARD_CHECK(p.rDamp() > 0.0);
}

PackageModel
PackageModel::design(double f0Hz, double zPeakOhms, double rDc,
                     double rDamp, double clockHz, double vNominal)
{
    if (f0Hz <= 0.0 || zPeakOhms <= 0.0)
        fatal("PackageModel::design: f0 and zPeak must be positive");
    if (zPeakOhms <= rDc)
        fatal("PackageModel::design: peak impedance %g must exceed the "
              "DC resistance %g",
              zPeakOhms, rDc);
    // Split the damping 60/40 between package loop and decap ESR; the
    // VRM-side resistance supplies the remaining DC drop.
    const double rPkg = 0.6 * rDamp;
    const double rEsr = 0.4 * rDamp;
    if (rPkg >= rDc)
        fatal("PackageModel::design: rDamp %g incompatible with rDc %g",
              rDamp, rDc);

    const double w0 = kTwoPi * f0Hz;
    // First-cut: at resonance |Z| ~= X^2 / rDamp with X = w0 L.
    double x = std::sqrt(zPeakOhms * rDamp);

    PackageParams p;
    p.rVrm = rDc - rPkg;
    p.rPkg = rPkg;
    p.rEsr = rEsr;
    p.vNominal = vNominal;
    p.clockHz = clockHz;

    for (int iter = 0; iter < 30; ++iter) {
        p.lPkg = x / w0;
        p.cDie = 1.0 / (w0 * x);
        p.cBulk = kBulkRatio * p.cDie;
        PackageModel trial(p);
        const double err = trial.peakImpedance() / zPeakOhms;
        if (std::fabs(err - 1.0) < 1e-9)
            break;
        x *= std::pow(err, -0.5);
    }
    p.lPkg = x / w0;
    p.cDie = 1.0 / (w0 * x);
    p.cBulk = kBulkRatio * p.cDie;
    return PackageModel(p);
}

PackageModel
PackageModel::paperReference(double zTargetOhms, double impedanceScale)
{
    return design(50e6, zTargetOhms * impedanceScale);
}

std::complex<double>
PackageModel::impedance(double hz) const
{
    if (hz == 0.0)
        return {params_.rDc(), 0.0};
    const std::complex<double> s(0.0, kTwoPi * hz);
    // Upstream branch seen from the die: R_pkg + sL in series with the
    // parallel combination of C_bulk and the VRM path.
    const std::complex<double> zBulk = 1.0 / (s * params_.cBulk);
    const std::complex<double> zVrmSide =
        params_.rVrm * zBulk / (params_.rVrm + zBulk);
    const std::complex<double> zUp =
        params_.rPkg + s * params_.lPkg + zVrmSide;
    const std::complex<double> zCap =
        params_.rEsr + 1.0 / (s * params_.cDie);
    return zUp * zCap / (zUp + zCap);
}

double
PackageModel::impedanceMag(double hz) const
{
    return std::abs(impedance(hz));
}

double
PackageModel::resonantFrequencyHz() const
{
    const double f0 = naturalFrequencyHz();
    double bestF = f0;
    double bestZ = impedanceMag(f0);
    for (double f = f0 / 8.0; f <= f0 * 8.0; f *= 1.02) {
        const double z = impedanceMag(f);
        if (z > bestZ) {
            bestZ = z;
            bestF = f;
        }
    }

    double lo = bestF / 1.05, hi = bestF * 1.05;
    const double gr = 0.6180339887498949;
    double a = hi - gr * (hi - lo);
    double b = lo + gr * (hi - lo);
    double za = impedanceMag(a);
    double zb = impedanceMag(b);
    for (int i = 0; i < 80; ++i) {
        if (za < zb) {
            lo = a;
            a = b;
            za = zb;
            b = lo + gr * (hi - lo);
            zb = impedanceMag(b);
        } else {
            hi = b;
            b = a;
            zb = za;
            a = hi - gr * (hi - lo);
            za = impedanceMag(a);
        }
    }
    return 0.5 * (lo + hi);
}

double
PackageModel::peakImpedance() const
{
    return impedanceMag(resonantFrequencyHz());
}

unsigned
PackageModel::resonantPeriodCycles() const
{
    const double cycles = params_.clockHz / resonantFrequencyHz();
    return static_cast<unsigned>(std::lround(cycles));
}

double
PackageModel::naturalFrequencyHz() const
{
    return 1.0 / (kTwoPi * std::sqrt(params_.lPkg * params_.cDie));
}

double
PackageModel::qualityFactor() const
{
    const double w0 = kTwoPi * naturalFrequencyHz();
    return w0 * params_.lPkg / params_.rDamp();
}

linsys::StateSpaceN
PackageModel::stateSpace() const
{
    // States: x = [v_bulk, i_L, v_dcap]; inputs u = [Vdd, I_cpu].
    //   C_b v_b' = (Vdd - v_b)/R_vrm - i_L
    //   L   i_L' = v_b - R_pkg i_L - v_dcap - R_esr (i_L - I)
    //   C_d v_d' = i_L - I
    //   v_die    = v_dcap + R_esr (i_L - I)
    const double rv = params_.rVrm;
    const double rp = params_.rPkg;
    const double rc = params_.rEsr;
    const double l = params_.lPkg;
    const double cd = params_.cDie;
    const double cb = params_.cBulk;

    linsys::StateSpaceN ss(3, 2);
    ss.a.at(0, 0) = -1.0 / (rv * cb);
    ss.a.at(0, 1) = -1.0 / cb;
    ss.a.at(1, 0) = 1.0 / l;
    ss.a.at(1, 1) = -(rp + rc) / l;
    ss.a.at(1, 2) = -1.0 / l;
    ss.a.at(2, 1) = 1.0 / cd;

    // B is 3x2 row-major: columns [Vdd, I].
    ss.b[0 * 2 + 0] = 1.0 / (rv * cb);
    ss.b[1 * 2 + 1] = rc / l;
    ss.b[2 * 2 + 1] = -1.0 / cd;

    ss.c = {0.0, rc, 1.0};
    ss.d = {0.0, -rc};
    return ss;
}

linsys::DiscreteStateSpaceN
PackageModel::discrete() const
{
    return linsys::DiscreteStateSpaceN::zoh(stateSpace(),
                                            1.0 / params_.clockHz);
}

} // namespace vguard::pdn
