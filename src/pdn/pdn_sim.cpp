#include "pdn/pdn_sim.hpp"

namespace vguard::pdn {

PdnSim::PdnSim(const PackageModel &model)
    : model_(model), dss_(model.discrete()),
      vdd_(model.params().vNominal)
{
    trimToCurrent(0.0);
}

void
PdnSim::trimToCurrent(double iRef)
{
    iTrim_ = iRef;
    const auto &p = model_.params();
    // DC: v_die = Vdd - rDc * I; pick Vdd so v_die == vNominal.
    vdd_ = p.vNominal + p.rDc() * iRef;
    // DC state: v_bulk = Vdd - R_vrm I, i_L = I, v_dcap = vNominal.
    xTrim_ = {vdd_ - p.rVrm * iRef, iRef, p.vNominal};
    x_ = xTrim_;
}

// vlint: hot
void
PdnSim::stepMany(const double *amps, size_t n, double *volts)
{
    dss_.stepBlock2(x_, vdd_, amps, n, volts);
    steps_ += n;
}

std::vector<double>
PdnSim::run(const std::vector<double> &amps)
{
    // One sized allocation for the output; the stepping itself is
    // allocation-free (see the regression guard in tests/test_pdn.cpp).
    std::vector<double> vs(amps.size());
    stepMany(amps.data(), amps.size(), vs.data());
    return vs;
}

void
PdnSim::reset()
{
    x_ = xTrim_;
}

} // namespace vguard::pdn
