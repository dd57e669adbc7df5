/**
 * @file
 * Stats emitters for the hardware layers (cpu/pdn/power).
 *
 * The layering puts obs and core *above* the hardware models (util <
 * linsys < pdn/power/cpu < obs < core — DESIGN.md §8, enforced by
 * vlint's layer-dag rule), yet the gem5-style metrics contract wants
 * every component to append its plain-member counters to an
 * obs::Snapshot. Both hold by splitting declaration from definition:
 * the hardware headers only *declare* appendStats against a
 * forward-declared obs::Snapshot, and this core-layer TU — which may
 * legally include downward, and is built with its only callers in
 * vguard_core — provides the definitions. Hardware TUs stay free of
 * upward includes, and their libraries link nothing above them.
 *
 * Adding a component: declare `appendStats(obs::Snapshot&, ...) const`
 * in its header with `namespace vguard::obs { class Snapshot; }`,
 * define it here.
 */

#include <string>

#include "cpu/core.hpp"
#include "obs/metrics.hpp"
#include "pdn/pdn_sim.hpp"
#include "power/wattch.hpp"

namespace vguard::pdn {

void
PdnSim::appendStats(obs::Snapshot &out, const std::string &prefix) const
{
    out.addCounter(prefix + ".steps", "PDN cycles stepped", steps_);
    out.addGauge(prefix + ".vdd_setpoint", "regulator set point [V]",
                 vdd_);
    out.addGauge(prefix + ".v_nominal", "nominal die voltage [V]",
                 vNominal());
    out.addGauge(prefix + ".i_trim", "regulator trim current [A]",
                 iTrim_);
}

} // namespace vguard::pdn

namespace vguard::power {

void
WattchModel::appendStats(obs::Snapshot &out, const std::string &prefix,
                         double dtSeconds) const
{
    double sum = 0.0;
    for (size_t u = 0; u < kNumUnits; ++u) {
        const std::string unit = unitName(static_cast<Unit>(u));
        out.addGauge(prefix + "." + unit + ".energy_j",
                     "dynamic energy of the " + unit + " [J]",
                     wattCycles_[u] * dtSeconds, obs::MergeRule::Sum);
        sum += wattCycles_[u];
    }
    out.addGauge(prefix + ".total.energy_j", "total dynamic energy [J]",
                 sum * dtSeconds, obs::MergeRule::Sum);
}

} // namespace vguard::power

namespace vguard::cpu {

void
OoOCore::appendStats(obs::Snapshot &out, const std::string &prefix) const
{
    auto counter = [&](const std::string &name, const char *desc,
                       uint64_t value) {
        out.addCounter(prefix + "." + name, desc, value);
    };

    const CoreStats &s = stats_;
    counter("cycles", "simulated cycles", s.cycles);
    counter("fetch.insts", "instructions fetched", s.fetched);
    counter("fetch.stall_branch", "fetch cycles lost to mispredicts",
            s.fetchStallBranch);
    counter("fetch.stall_icache", "fetch cycles lost to I-misses",
            s.fetchStallIcache);
    counter("fetch.stall_gate", "fetch cycles lost to IL1 gating",
            s.fetchStallGate);
    counter("dispatch.insts", "instructions dispatched", s.dispatched);
    counter("dispatch.stall_window", "dispatch stalls on full RUU/LSQ",
            s.dispatchStallWindow);
    counter("issue.insts", "instructions issued", s.issued);
    counter("issue.gate_stalls", "ready ops blocked by FU gating",
            s.issueGateStalls);
    counter("commit.insts", "instructions committed", s.committed);
    counter("commit.gate_stalls", "commit blocked by DL1 gating",
            s.commitGateStalls);
    counter("mem.loads", "loads committed", s.loads);
    counter("mem.stores", "stores committed", s.stores);
    counter("mem.lsq_forwards", "store-to-load forwards", s.lsqForwards);
    counter("branches.count", "branches committed", s.branches);
    counter("branches.mispredicts", "branches mispredicted",
            s.mispredicts);
    out.addGauge(prefix + ".commit.ipc",
                 "committed instructions per cycle", s.ipc());

    const BpredStats &b = bpred_.stats();
    counter("bpred.lookups", "branch predictor lookups", b.lookups);
    counter("bpred.cond_branches", "conditional branches predicted",
            b.condBranches);
    counter("bpred.cond_mispredicts", "conditional mispredicts",
            b.condMispredicts);
    counter("bpred.btb_misses", "taken control with unknown target",
            b.btbMisses);
    counter("bpred.ras_mispredicts", "return address mispredicts",
            b.rasMispredicts);

    auto cache = [&](const std::string &name, const CacheStats &c) {
        counter(name + ".accesses", "cache accesses", c.accesses);
        counter(name + ".misses", "cache misses", c.misses);
        counter(name + ".writebacks", "cache writebacks", c.writebacks);
    };
    cache("icache", mem_.il1().stats());
    cache("dcache", mem_.dl1().stats());
    cache("l2", mem_.l2().stats());
}

} // namespace vguard::cpu
