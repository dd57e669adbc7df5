#include "pdn/target_impedance.hpp"

#include <cmath>

#include "linsys/worst_case.hpp"
#include "pdn/impulse.hpp"
#include "util/logging.hpp"

namespace vguard::pdn {

void
worstCaseExtremes(const PackageModel &model, double iMin, double iMax,
                  double &vMinOut, double &vMaxOut, double iTrim)
{
    const auto h = impulseResponse(model);
    const auto wc = linsys::bangBangWorstCase(h, iMin, iMax);
    const double ref = iTrim >= 0.0 ? iTrim : iMin;
    const double vdd =
        model.params().vNominal + model.params().rDc() * ref;
    vMinOut = vdd + wc.minOutput;
    vMaxOut = vdd + wc.maxOutput;
}

TargetImpedanceResult
calibrateTargetImpedance(const TargetImpedanceSpec &spec)
{
    if (!(spec.iMax > spec.iMin))
        fatal("calibrateTargetImpedance: need iMax > iMin (got %g..%g)",
              spec.iMin, spec.iMax);
    if (!(spec.band > 0.0))
        fatal("calibrateTargetImpedance: band must be positive");

    const double vLoBound = spec.vNominal * (1.0 - spec.band);
    const double vHiBound = spec.vNominal * (1.0 + spec.band);

    auto violation = [&](double zPeak) {
        const PackageModel m = PackageModel::design(
            spec.f0Hz, zPeak, spec.rDc, spec.rDamp, spec.clockHz,
            spec.vNominal);
        double vMin, vMax;
        worstCaseExtremes(m, spec.iMin, spec.iMax, vMin, vMax,
                          spec.iTrim);
        return std::max(vLoBound - vMin, vMax - vHiBound);
    };

    // Bracket: lowest buildable peak slightly above the DC resistance,
    // highest far beyond any sane package.
    double zLo = spec.rDc * 1.05;
    double zHi = spec.rDc * 1000.0;
    if (violation(zLo) > 0.0)
        fatal("calibrateTargetImpedance: the ±%.1f%% band cannot be met "
              "even at the minimum buildable impedance; the DC drop "
              "alone is too large",
              100.0 * spec.band);
    if (violation(zHi) < 0.0) {
        // The band is never violated; report the bracket top.
        warn("calibrateTargetImpedance: band never violated up to %g Ω",
             zHi);
    } else {
        for (int i = 0; i < 60; ++i) {
            const double mid = std::sqrt(zLo * zHi); // log bisection
            if (violation(mid) > 0.0)
                zHi = mid;
            else
                zLo = mid;
        }
    }

    TargetImpedanceResult res;
    res.zTargetOhms = zLo;
    const PackageModel m = PackageModel::design(
        spec.f0Hz, res.zTargetOhms, spec.rDc, spec.rDamp, spec.clockHz,
        spec.vNominal);
    worstCaseExtremes(m, spec.iMin, spec.iMax, res.worstDipV,
                      res.worstPeakV, spec.iTrim);
    return res;
}

} // namespace vguard::pdn
