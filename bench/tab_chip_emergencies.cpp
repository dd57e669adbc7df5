/**
 * @file
 * Chip-level emergency table: cores sharing one package rail versus
 * phase alignment of their activity.
 *
 * The paper studies one core on one package; this table asks what its
 * resonance story means for a many-core chip. Each row is an N-core
 * chip whose package scales with the core count (impedance and
 * resistance 1/N — an N-core package has N× the pads — trim N× the
 * per-core gated draw), every core replaying the same calibrated
 * stressmark capture at a per-core phase offset:
 *
 *   synced      all offsets 0 — every core hits the resonance in
 *               phase, dI/dt adds coherently;
 *   staggered   offsets spread over a full resonant period T
 *               (i·T/N) — the droops interleave and largely cancel;
 *   adversarial offsets compressed into a quarter period
 *               (i·T/(4N)) — misaligned enough to dodge the
 *               scheduler-friendly pattern, coherent enough to breach.
 *
 * Expected shape: synced is strictly worst at every N ≥ 2, staggered
 * eliminates the emergencies, adversarial sits in between. A closing
 * section turns on per-core bang-bang loops and the chip governor at
 * the worst configuration and reports what hierarchical control buys
 * (and how evenly it spreads the throttling — Jain fairness).
 *
 * All cores × alignment configurations run as lanes of ONE batched
 * shared-rail backend pass. That pass and the closing section's
 * control runs are cross-checked field for field against the scalar
 * reference. Usage:
 *   tab_chip_emergencies [--jsonl FILE] [--trace FILE]
 *                        [--trace-canonical FILE]
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "core/multicore_sim.hpp"
#include "pdn/package_model.hpp"
#include "power/wattch.hpp"
#include "util/jsonl.hpp"
#include "util/table.hpp"
#include "workloads/stressmark.hpp"

using namespace vguard;
using namespace vguard::core;

namespace {

struct Config
{
    size_t cores;
    const char *alignment;
    size_t chipIndex = 0;  ///< lane in the runChips sweep
};

/** Phase offset of core @p i under the named alignment policy. */
size_t
phaseOffset(const std::string &alignment, size_t i, size_t n,
            size_t periodCycles)
{
    if (alignment == "synced")
        return 0;
    if (alignment == "staggered")
        return i * periodCycles / n;
    return i * periodCycles / (4 * n);  // adversarial
}

} // namespace

int
main(int argc, char **argv)
{
    const CampaignCli cli =
        parseCampaignCli(argc, argv, kJsonlOutput | kTraceOutput);
    const std::string &jsonlPath = cli.jsonlPath;

    std::printf("== Chip emergencies: shared-rail cores vs phase "
                "alignment ==\n\n");

    // One stressmark capture feeds every placement (trace_cache).
    const Machine m = referenceMachine();
    const pdn::PackageParams refPkg = referencePackage(2.0);
    const unsigned period =
        pdn::PackageModel(refPkg).resonantPeriodCycles();
    const auto stress =
        workloads::StressmarkBuilder::build(referenceStressmark().params);

    RunSpec rs;
    rs.impedanceScale = 2.0;
    rs.controllerEnabled = false;
    rs.maxCycles = cycleBudget(60000);
    CapturedTrace fallback;
    const CapturedTrace &trace = fetchTrace(stress, rs, fallback);
    const VoltageSimConfig refCfg = makeSimConfig(rs);
    const power::WattchModel wattch(refCfg.power, refCfg.cpu);
    const double iGate = wattch.minCurrent();

    const std::vector<size_t> coreCounts{1, 2, 4, 8, 16, 32, 64};
    const std::vector<std::string> alignments{"synced", "staggered",
                                              "adversarial"};

    // Every (cores, alignment) cell is one chip lane of a single sim.
    std::vector<Config> configs;
    std::vector<ChipSpec> chips;
    for (const size_t n : coreCounts) {
        // Impedance AND resistance scale 1/N (N× the pads), trim N×
        // the per-core gated draw: chips stay electrically comparable.
        const double s = 1.0 / static_cast<double>(n);
        const pdn::PackageParams pkg =
            pdn::PackageModel::design(
                50e6, 2.0 * referenceTarget().zTargetOhms * s,
                0.5e-3 * s, 0.25e-3 * s, m.cpu.clockHz, m.power.vdd)
                .params();
        for (const std::string &align : alignments) {
            ChipSpec chip;
            chip.package = pkg;
            chip.iTrim = iGate * static_cast<double>(n);
            chip.band = refCfg.band;
            chip.histLo = refCfg.histLo;
            chip.histHi = refCfg.histHi;
            chip.histBins = refCfg.histBins;
            for (size_t i = 0; i < n; ++i)
                chip.cores.push_back(
                    {&trace, phaseOffset(align, i, n, period), iGate,
                     0.0});
            configs.push_back({n, align.c_str(), chips.size()});
            chips.push_back(std::move(chip));
        }
    }

    const uint64_t cycles = trace.cycles();
    const auto batched =
        runChips(chips, cycles, pdn::BackendKind::Batched);
    const auto scalar =
        runChips(chips, cycles, pdn::BackendKind::Scalar);

    // Hierarchical control at the worst configuration: per-core
    // bang-bang loops alone, then with the chip governor arbitrating.
    const size_t worstN = 8;
    ChipSpec base;
    {
        const double s = 1.0 / static_cast<double>(worstN);
        base.package =
            pdn::PackageModel::design(
                50e6, 2.0 * referenceTarget().zTargetOhms * s,
                0.5e-3 * s, 0.25e-3 * s, m.cpu.clockHz, m.power.vdd)
                .params();
        base.iTrim = iGate * static_cast<double>(worstN);
        base.band = refCfg.band;
        for (size_t i = 0; i < worstN; ++i)
            base.cores.push_back({&trace, 0, iGate, 0.0});
    }
    SensorConfig sensor;
    const double vNom = base.package.vNominal;
    sensor.vLow = vNom * (1.0 - 0.5 * refCfg.band);
    sensor.vHigh = vNom * (1.0 + 0.5 * refCfg.band);
    sensor.delayCycles = 1;
    sensor.vNominal = vNom;

    ChipSpec local = base;
    local.sensor = sensor;
    ChipSpec governed = local;
    governed.governor = ChipGovernorConfig{};

    const std::vector<ChipSpec> ctlChips{base, local, governed};
    const auto ctl =
        runChips(ctlChips, cycles, pdn::BackendKind::Batched);
    const auto ctlScalar =
        runChips(ctlChips, cycles, pdn::BackendKind::Scalar);

    // The batched shared-rail engine must match the scalar golden
    // reference exactly, lane for lane and field for field, each
    // core's control counters included.
    const bool lanesIdentical = batched == scalar && ctl == ctlScalar;

    Table t({"cores", "alignment", "min V", "max V", "emergencies",
             "frequency"});
    for (const Config &c : configs) {
        const ChipResult &r = batched[c.chipIndex];
        const double freq =
            static_cast<double>(r.emergencyCycles()) /
            static_cast<double>(r.cycles);
        t.addRow({std::to_string(c.cores), c.alignment,
                  Table::fmt(r.minV, 5), Table::fmt(r.maxV, 5),
                  std::to_string(r.emergencyCycles()),
                  Table::fmt(100.0 * freq, 3) + "%"});
    }
    std::printf("%zu chips x %llu cycles (one batched shared-rail "
                "pass, scalar cross-check %s):\n%s\n",
                chips.size(),
                static_cast<unsigned long long>(cycles),
                lanesIdentical ? "identical" : "DIVERGED",
                t.ascii().c_str());

    // Acceptance shape: synced strictly worst at every N >= 2.
    bool syncedStrictlyWorst = true;
    for (const size_t n : coreCounts) {
        if (n < 2)
            continue;
        uint64_t em[3] = {0, 0, 0};
        for (const Config &c : configs)
            if (c.cores == n)
                for (size_t a = 0; a < alignments.size(); ++a)
                    if (alignments[a] == c.alignment)
                        em[a] = batched[c.chipIndex].emergencyCycles();
        syncedStrictlyWorst = syncedStrictlyWorst && em[0] > em[1] &&
                              em[0] > em[2];
    }
    std::printf("synced strictly worst at every N >= 2: %s\n\n",
                syncedStrictlyWorst ? "yes" : "NO");

    const char *names[3] = {"open loop", "per-core bang-bang",
                            "+ chip governor"};
    Table ct({"control", "emergencies", "gated cycles", "denials",
              "fairness"});
    for (size_t i = 0; i < 3; ++i) {
        uint64_t gated = 0;
        for (const CoreStats &cs : ctl[i].cores)
            gated += cs.gatedCycles;
        ct.addRow({names[i], std::to_string(ctl[i].emergencyCycles()),
                   std::to_string(gated),
                   std::to_string(ctl[i].gateDenials),
                   Table::fmt(ctl[i].gateFairness, 3)});
    }
    std::printf("hierarchical control at %zu synced cores:\n%s\n",
                worstN, ct.ascii().c_str());

    if (!jsonlPath.empty()) {
        std::ofstream out(jsonlPath, std::ios::binary);
        for (const Config &c : configs) {
            const ChipResult &r = batched[c.chipIndex];
            JsonWriter w;
            w.beginObject();
            w.field("cores", static_cast<uint64_t>(c.cores));
            w.field("alignment", c.alignment);
            w.field("cycles", r.cycles);
            w.field("minV", r.minV);
            w.field("maxV", r.maxV);
            w.field("lowEmergencyCycles", r.lowEmergencyCycles);
            w.field("highEmergencyCycles", r.highEmergencyCycles);
            w.field("lanesIdentical", lanesIdentical);
            w.field("syncedStrictlyWorst", syncedStrictlyWorst);
            w.endObject();
            out << w.take() << '\n';
        }
        std::printf("wrote %s\n", jsonlPath.c_str());
    }
    writeCampaignTrace(cli);
    return syncedStrictlyWorst && lanesIdentical ? 0 : 1;
}
