/**
 * @file
 * Cycle-by-cycle PDN simulator.
 *
 * Wraps the exactly-discretised package state space with mutable state
 * and the paper's regulator convention: "a capable voltage regulator can
 * maintain the ideal supply level of 1.0 V when the processor is at its
 * minimum power level" (Section 3.1). trimToCurrent() implements that by
 * raising the regulator set point to cancel the IR drop at a reference
 * current.
 */

#ifndef VGUARD_PDN_PDN_SIM_HPP
#define VGUARD_PDN_PDN_SIM_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "pdn/package_model.hpp"

namespace vguard::obs {
class Snapshot;  // emitted in obs/stat_bindings.cpp (obs sits above pdn)
}

namespace vguard::pdn {

/** Stateful per-cycle simulator of a PackageModel. */
class PdnSim
{
  public:
    explicit PdnSim(const PackageModel &model);

    /**
     * Choose the regulator set point so the die sits exactly at
     * vNominal when drawing @p iRef amps DC, and initialise the state
     * to that operating point.
     */
    void trimToCurrent(double iRef);

    /**
     * Advance @p n cycles from a flat current trace, writing the die
     * voltage of each cycle to @p volts: the one stepping loop
     * (DiscreteStateSpaceN::stepBlock2). Allocation-free; a block of
     * n cycles is bit-identical to n one-cycle calls.
     */
    void stepMany(const double *amps, size_t n, double *volts);

    /**
     * Advance one CPU cycle with the processor drawing @p amps; returns
     * the die voltage during that cycle. stepMany over one cycle.
     */
    double
    step(double amps)
    {
        double v = 0.0;
        stepMany(&amps, 1, &v);
        return v;
    }

    /** Run a whole current trace; returns the voltage trace. */
    std::vector<double> run(const std::vector<double> &amps);

    /** Reset state to the DC operating point of the last trim. */
    void reset();

    /** Regulator set point (after trim). */
    double vddSetPoint() const { return vdd_; }

    /** Nominal die voltage (band centre). */
    double vNominal() const { return model_.params().vNominal; }

    const PackageModel &model() const { return model_; }

    /** Cycles stepped since construction. */
    uint64_t steps() const { return steps_; }

    /**
     * Append the PDN's telemetry to @p out: `<prefix>.steps`, the
     * regulator set point, the nominal voltage and the trim current.
     */
    void appendStats(obs::Snapshot &out,
                     const std::string &prefix) const;

    /** Raw state access for checkpoint/restore in solver searches. */
    const std::vector<double> &state() const { return x_; }
    void setState(const std::vector<double> &x) { x_ = x; }

  private:
    PackageModel model_;
    linsys::DiscreteStateSpaceN dss_;
    std::vector<double> x_;      ///< [v_bulk, i_L, v_dcap]
    std::vector<double> xTrim_;  ///< DC state at the trim point
    double vdd_;                 ///< regulator set point
    double iTrim_ = 0.0;
    uint64_t steps_ = 0;
};

} // namespace vguard::pdn

#endif // VGUARD_PDN_PDN_SIM_HPP
