/**
 * @file
 * The benchmark's workloads. Each one mirrors a paper artifact's shape
 * and drives the library only through its public API, with the
 * library's defaults (in-process trace cache on, persistent store off):
 *
 *  - spec_sweep  Table 2: 26 SPEC proxies + the stressmark at
 *                100-400 % on the campaign engine, then the 13-lane
 *                fine replaySweep of the stressmark.
 *  - controlled  Figs. 14-16: SPEC-8 + stressmark compareControlled
 *                at Table-3 delays and one sensor-error point.
 *  - chip_sweep  Shared-rail chips x alignments, open loop and with
 *                per-core sensors + ChipGovernor, through runChips.
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/experiments.hpp"
#include "core/multicore_sim.hpp"
#include "core/replay_sweep.hpp"
#include "core/trace_cache.hpp"
#include "perfbench.hpp"
#include "power/wattch.hpp"
#include "workloads/spec_proxy.hpp"
#include "workloads/stressmark.hpp"

namespace perfbench {

using namespace vguard;
using namespace vguard::core;

namespace {

uint64_t
mix(uint64_t x)
{
    // splitmix64 finaliser: decorrelates seed-derived streams.
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

uint64_t
bits(double v)
{
    uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

std::string
digestOf(uint64_t cycles, uint64_t committed, double minV, double maxV,
         uint64_t low, uint64_t high, double energy)
{
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%llu:%llu:%016llx:%016llx:%llu:%llu:%016llx",
                  static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(committed),
                  static_cast<unsigned long long>(bits(minV)),
                  static_cast<unsigned long long>(bits(maxV)),
                  static_cast<unsigned long long>(low),
                  static_cast<unsigned long long>(high),
                  static_cast<unsigned long long>(bits(energy)));
    return buf;
}

std::string
digestOf(const VoltageSimResult &r)
{
    return digestOf(r.cycles, r.committed, r.minV, r.maxV,
                    r.lowEmergencyCycles, r.highEmergencyCycles,
                    r.energyJ);
}

std::string
digestOf(const SweepLaneResult &r)
{
    return digestOf(r.cycles, 0, r.minV, r.maxV, r.lowEmergencyCycles,
                    r.highEmergencyCycles, 0.0);
}

/** Chips have no committed count or energy; the control layer's
    grants, denials and gated cycles follow the PDN fields instead. */
std::string
digestOf(const ChipResult &r)
{
    uint64_t gated = 0;
    for (const CoreStats &c : r.cores)
        gated += c.gatedCycles;
    char buf[96];
    std::snprintf(buf, sizeof buf, ":%llu:%llu:%llu",
                  static_cast<unsigned long long>(r.gateGrants),
                  static_cast<unsigned long long>(r.gateDenials),
                  static_cast<unsigned long long>(gated));
    return digestOf(r.cycles, 0, r.minV, r.maxV, r.lowEmergencyCycles,
                    r.highEmergencyCycles, 0.0) +
           buf;
}

/** FNV-1a of an exported artifact, as a digest string. */
std::string
digestOf(const std::string &artifact)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : artifact)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
    char buf[48];
    std::snprintf(buf, sizeof buf, "%zu:%016llx", artifact.size(),
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Field-for-field equality of a sweep lane and a single-run result. */
template <class A, class B>
bool
samePdnFields(const A &a, const B &b)
{
    if (a.cycles != b.cycles || bits(a.minV) != bits(b.minV) ||
        bits(a.maxV) != bits(b.maxV) ||
        a.lowEmergencyCycles != b.lowEmergencyCycles ||
        a.highEmergencyCycles != b.highEmergencyCycles ||
        a.voltageHist.bins() != b.voltageHist.bins() ||
        a.voltageHist.underflow() != b.voltageHist.underflow() ||
        a.voltageHist.overflow() != b.voltageHist.overflow() ||
        a.voltageHist.total() != b.voltageHist.total())
        return false;
    for (size_t i = 0; i < a.voltageHist.bins(); ++i)
        if (a.voltageHist.count(i) != b.voltageHist.count(i))
            return false;
    return true;
}

std::string
percent(double scale)
{
    return std::to_string(static_cast<int>(std::lround(100.0 * scale))) +
           "%";
}

/** Set-up shared by every workload: references and the stressmark. */
struct Reference
{
    unsigned period = 0;
    workloads::StressmarkCalibration cal;
    double iGate = 0.0;
    VoltageSimConfig openCfg;  ///< open-loop config at 200 %
};

Reference
referenceSetup(Spans &spans)
{
    Reference r;
    {
        Spans::Scope s(spans, "core.reference");
        referenceCurrentRange();
        referenceTarget();
        r.period =
            pdn::PackageModel(referencePackage(2.0)).resonantPeriodCycles();
        RunSpec rs;
        rs.controllerEnabled = false;
        r.openCfg = makeSimConfig(rs);
        r.iGate =
            power::WattchModel(r.openCfg.power, r.openCfg.cpu).minCurrent();
    }
    {
        Spans::Scope s(spans, "workloads.calibrate");
        r.cal = workloads::StressmarkBuilder::calibrate(
            r.period, referenceMachine().cpu);
    }
    return r;
}

RunSpec
openSpec(double scale, uint64_t cycles)
{
    RunSpec rs;
    rs.impedanceScale = scale;
    rs.controllerEnabled = false;
    rs.maxCycles = cycles;
    return rs;
}

/** Render the three campaign artifacts, as a CLI run would write. */
void
exportArtifacts(const CampaignResult &res, Spans &spans, Outcome &out)
{
    std::string jsonl, stats, events;
    {
        Spans::Scope s(spans, "core.campaign.export");
        jsonl = res.jsonl();
        stats = res.statsJson();
        events = res.eventsJsonl();
    }
    // statsJson carries wall-clock fields; the other two are
    // byte-deterministic, so they join the run digests.
    out.digests.emplace_back("artifact.jsonl", digestOf(jsonl));
    out.digests.emplace_back("artifact.events", digestOf(events));
}

// ---------------------------------------------------------------------

class SpecSweep final : public Workload
{
  public:
    explicit SpecSweep(uint64_t seed) : seed_(seed) {}

    void
    setup(Spans &spans) override
    {
        ref_ = referenceSetup(spans);
        const auto &names = workloads::specBenchmarkNames();
        {
            Spans::Scope s(spans, "workloads.proxy_build");
            for (size_t b = 0; b < names.size(); ++b)
                programs_.push_back(workloads::buildSpecProxy(
                    workloads::specProfile(names[b]), mix(seed_ ^ b)));
            stress_ = workloads::StressmarkBuilder::build(ref_.cal.params);
        }
        // Benchmark-major job order, stressmark contrast rows last,
        // exactly as tab02_spec_emergencies submits them.
        for (size_t b = 0; b < names.size(); ++b)
            for (const double s : kScales)
                jobs_.push_back({names[b] + "@" + percent(s),
                                 programs_[b], openSpec(s, kCycles),
                                 false});
        for (const double s : kScales)
            jobs_.push_back({"stressmark@" + percent(s), stress_,
                             openSpec(s, kCycles), false});
        {
            Spans::Scope s(spans, "core.reference");
            for (double z = 1.0; z <= 4.0 + 1e-9; z += 0.25) {
                fine_.push_back(z);
                lanes_.push_back({referencePackage(z), ref_.iGate,
                                  ref_.openCfg.band, ref_.openCfg.histLo,
                                  ref_.openCfg.histHi,
                                  ref_.openCfg.histBins});
            }
        }
    }

    Outcome
    body(Spans &spans) override
    {
        Outcome out;
        // Every pass starts cold, as a fresh artifact process would.
        TraceCache::instance().clear();
        std::vector<CampaignJob> jobs = jobs_;
        CampaignEngine::Options opts;
        opts.threads = kThreads;
        opts.campaignSeed = mix(seed_ + 1);
        CampaignResult res;
        {
            Spans::Scope s(spans, "core.campaign.run");
            res = CampaignEngine(opts).run(std::move(jobs));
        }
        exportArtifacts(res, spans, out);
        for (const RunResult &r : res.runs) {
            out.digests.emplace_back(r.name, digestOf(r.sim));
            out.episodes += r.sim.events.total();
        }

        CapturedTrace fallback;
        const CapturedTrace *trace = nullptr;
        {
            Spans::Scope s(spans, "core.fetch_trace");
            trace = &fetchTrace(stress_, openSpec(1.0, kCycles), fallback);
        }
        std::vector<SweepLaneResult> swept;
        {
            Spans::Scope s(spans, "core.replay_sweep",
                           static_cast<double>(lanes_.size() *
                                               trace->cycles()));
            swept = replaySweep(trace->ampsData(), trace->cycles(),
                                lanes_);
        }
        for (size_t i = 0; i < swept.size(); ++i)
            out.digests.emplace_back("fine@" + percent(fine_[i]),
                                     digestOf(swept[i]));

        // Cross-path oracle: the fine lanes at 100/200/300/400 % must
        // equal the campaign's stressmark rows field for field.
        const size_t firstStress = programs_.size() * kScales.size();
        for (size_t k = 0; k < kScales.size(); ++k) {
            const size_t lane = 4 * k;  // 1.0 + 0.25 * lane == kScales[k]
            const RunResult &row = res.runs[firstStress + k];
            if (!samePdnFields(swept[lane], row.sim)) {
                out.crossPathFailures.push_back(row.name);
                out.crossPathFailures.push_back("fine@" +
                                                percent(fine_[lane]));
            }
        }
        out.cycles = res.totalCycles + lanes_.size() * trace->cycles();
        return out;
    }

    ProbeInputs
    probeInputs() const override
    {
        ProbeInputs in;
        in.programs = programs_;
        in.programs.push_back(stress_);
        for (const SweepLane &l : lanes_)
            in.lanes.push_back(l.package);
        in.delayCycles = 2;
        in.cycles = 20000;
        return in;
    }

  private:
    static constexpr uint64_t kCycles = 60000;  // tab02's default
    static constexpr unsigned kThreads = 2;
    static constexpr std::array<double, 4> kScales{1.0, 2.0, 3.0, 4.0};

    uint64_t seed_;
    Reference ref_;
    std::vector<isa::Program> programs_;
    isa::Program stress_;
    std::vector<CampaignJob> jobs_;
    std::vector<double> fine_;
    std::vector<SweepLane> lanes_;
};

// ---------------------------------------------------------------------

class Controlled final : public Workload
{
  public:
    explicit Controlled(uint64_t seed) : seed_(seed) {}

    void
    setup(Spans &spans) override
    {
        ref_ = referenceSetup(spans);
        const auto &names = workloads::emergencySetNames();
        {
            Spans::Scope s(spans, "workloads.proxy_build");
            for (size_t b = 0; b < names.size(); ++b)
                programs_.push_back(workloads::buildSpecProxy(
                    workloads::specProfile(names[b]), mix(seed_ ^ b)));
            stress_ = workloads::StressmarkBuilder::build(ref_.cal.params);
        }
        {
            Spans::Scope s(spans, "core.thresholds");
            for (const unsigned d : kDelays)
                referenceThresholds(2.0, d);
            for (const double e : kErrors)
                referenceThresholds(2.0, 2, e);
        }
        // Figs. 14-15: per delay, SPEC-8 then the stressmark; Fig. 16
        // leg: the same set at delay 2 under sensor error, whose noise
        // streams the campaign seed drives.
        auto addGroup = [&](const std::string &tag, unsigned delay,
                            double error) {
            RunSpec rs;
            rs.impedanceScale = 2.0;
            rs.delayCycles = delay;
            rs.sensorError = error;
            rs.actuator = ActuatorKind::Ideal;
            rs.maxCycles = kCycles;
            for (size_t b = 0; b < names.size(); ++b)
                jobs_.push_back({names[b] + tag, programs_[b], rs, true});
            jobs_.push_back({"stressmark" + tag, stress_, rs, true});
        };
        for (const unsigned d : kDelays)
            addGroup("@d" + std::to_string(d), d, 0.0);
        for (const double e : kErrors)
            addGroup("@e" + std::to_string(std::lround(e * 1e3)) + "mV", 2,
                     e);
    }

    Outcome
    body(Spans &spans) override
    {
        Outcome out;
        TraceCache::instance().clear();
        std::vector<CampaignJob> jobs = jobs_;
        CampaignEngine::Options opts;
        opts.threads = 1;
        opts.campaignSeed = mix(seed_ + 2);
        CampaignResult res;
        {
            Spans::Scope s(spans, "core.campaign.run");
            res = CampaignEngine(opts).run(std::move(jobs));
        }
        exportArtifacts(res, spans, out);
        for (const RunResult &r : res.runs) {
            const Comparison &c = *r.comparison;
            out.digests.emplace_back(r.name + "/base",
                                     digestOf(c.baseline));
            out.digests.emplace_back(r.name + "/ctl",
                                     digestOf(c.controlled));
            out.cycles += c.baseline.cycles + c.controlled.cycles;
            out.episodes +=
                c.baseline.events.total() + c.controlled.events.total();
        }
        return out;
    }

    ProbeInputs
    probeInputs() const override
    {
        ProbeInputs in;
        in.programs = programs_;
        in.programs.push_back(stress_);
        in.lanes.push_back(referencePackage(2.0));
        in.delayCycles = 2;
        in.cycles = 20000;
        return in;
    }

  private:
    static constexpr uint64_t kCycles = 20000;
    static constexpr std::array<unsigned, 4> kDelays{0, 2, 4, 6};
    static constexpr std::array<double, 1> kErrors{0.020};

    uint64_t seed_;
    Reference ref_;
    std::vector<isa::Program> programs_;
    isa::Program stress_;
    std::vector<CampaignJob> jobs_;
};

// ---------------------------------------------------------------------

class ChipSweep final : public Workload
{
  public:
    explicit ChipSweep(uint64_t seed) : seed_(seed) {}

    void
    setup(Spans &spans) override
    {
        ref_ = referenceSetup(spans);
        {
            Spans::Scope s(spans, "workloads.proxy_build");
            stress_ = workloads::StressmarkBuilder::build(ref_.cal.params);
        }
        // N cores at 1/N impedance and resistance draw N x the current
        // of one core, so the single-core 200 % solve is exactly the
        // per-core sensor's safe window on every chip.
        const Thresholds *th = nullptr;
        {
            Spans::Scope s(spans, "core.thresholds");
            th = &referenceThresholds(2.0, kDelay);
        }
        // The input capture: one open-loop campaign run, which is also
        // the single-core reference the 1-core chip must reproduce.
        std::vector<CampaignJob> jobs{
            {"stressmark@200%", stress_, openSpec(2.0, kCycles), false}};
        CampaignEngine::Options opts;
        opts.threads = 1;
        CampaignResult res;
        {
            Spans::Scope s(spans, "core.campaign.run");
            res = CampaignEngine(opts).run(std::move(jobs));
        }
        Outcome ignored;
        exportArtifacts(res, spans, ignored);
        single_ = res.runs[0].sim;
        {
            Spans::Scope s(spans, "core.fetch_trace");
            trace_ = &fetchTrace(stress_, openSpec(2.0, kCycles),
                                 fallback_);
        }

        const Machine m = referenceMachine();
        uint64_t jitter = mix(seed_);
        for (const size_t n : kCores) {
            const double s = 1.0 / static_cast<double>(n);
            pdn::PackageParams pkg;
            {
                Spans::Scope sp(spans, "core.reference");
                pkg = pdn::PackageModel::design(
                          50e6, 2.0 * referenceTarget().zTargetOhms * s,
                          0.5e-3 * s, 0.25e-3 * s, m.cpu.clockHz,
                          m.power.vdd)
                          .params();
            }
            for (const char *align : kAlignments) {
                ChipSpec chip;
                chip.package = pkg;
                chip.iTrim = ref_.iGate * static_cast<double>(n);
                chip.band = ref_.openCfg.band;
                chip.histLo = ref_.openCfg.histLo;
                chip.histHi = ref_.openCfg.histHi;
                chip.histBins = ref_.openCfg.histBins;
                for (size_t i = 0; i < n; ++i) {
                    size_t offset = 0;
                    if (std::strcmp(align, "staggered") == 0)
                        offset = i * ref_.period / n;
                    else if (std::strcmp(align, "adversarial") == 0)
                        offset = i * ref_.period / (4 * n);
                    // Seeded phase jitter of 0-3 cycles; core 0 keeps
                    // offset 0 so every 1-core chip is the reference.
                    if (i > 0) {
                        jitter = mix(jitter);
                        offset += jitter % 4;
                    }
                    chip.cores.push_back({trace_, offset, ref_.iGate, 0.0});
                }
                names_.push_back(std::to_string(n) + "x" + align);
                open_.push_back(chip);
                SensorConfig sensor;
                sensor.vLow = th->vLow;
                sensor.vHigh = th->vHigh;
                sensor.delayCycles = kDelay;
                sensor.vNominal = pkg.vNominal;
                chip.sensor = sensor;
                chip.governor = ChipGovernorConfig{};
                governed_.push_back(std::move(chip));
            }
        }
    }

    Outcome
    body(Spans &spans) override
    {
        Outcome out;
        std::vector<ChipResult> open, governed;
        {
            Spans::Scope s(spans, "core.multicore.open",
                           static_cast<double>(open_.size() * kCycles));
            open = runChips(open_, kCycles, pdn::BackendKind::Batched);
        }
        {
            Spans::Scope s(spans, "core.multicore.governed",
                           static_cast<double>(governed_.size() *
                                               kCycles));
            governed = runChips(governed_, kCycles,
                                pdn::BackendKind::Batched);
        }
        for (size_t i = 0; i < open.size(); ++i)
            out.digests.emplace_back(names_[i] + "/open",
                                     digestOf(open[i]));
        for (size_t i = 0; i < governed.size(); ++i) {
            out.digests.emplace_back(names_[i] + "/governed",
                                     digestOf(governed[i]));
            for (const CoreStats &c : governed[i].cores)
                out.gateRequests += c.gateRequests;
            out.gateDenials += governed[i].gateDenials;
        }
        // Cross-path oracle: a 1-core open chip replays the capture on
        // the reference package, so it must equal the single-core run.
        for (size_t i = 0; i < kAlignments.size(); ++i)
            if (!samePdnFields(open[i], single_))
                out.crossPathFailures.push_back(names_[i] + "/open");
        out.cycles = (open.size() + governed.size()) * kCycles;
        return out;
    }

    std::vector<std::string>
    verify() override
    {
        // The batched shared-rail engine against its scalar reference.
        std::vector<std::string> failed;
        const auto a = runChips(open_, kCycles, pdn::BackendKind::Batched);
        const auto b = runChips(open_, kCycles, pdn::BackendKind::Scalar);
        for (size_t i = 0; i < a.size(); ++i)
            if (!samePdnFields(a[i], b[i]))
                failed.push_back(names_[i] + "/open");
        return failed;
    }

    ProbeInputs
    probeInputs() const override
    {
        ProbeInputs in;
        in.programs.push_back(stress_);
        for (size_t i = 0; i < open_.size(); i += kAlignments.size())
            in.lanes.push_back(open_[i].package);
        in.delayCycles = kDelay;
        in.cycles = 200000;
        return in;
    }

  private:
    static constexpr uint64_t kCycles = 60000;  // tab_chip's capture
    static constexpr unsigned kDelay = 1;
    static constexpr std::array<size_t, 7> kCores{1, 2, 4, 8, 16, 32, 64};
    static constexpr std::array<const char *, 3> kAlignments{
        "synced", "staggered", "adversarial"};

    uint64_t seed_;
    Reference ref_;
    isa::Program stress_;
    VoltageSimResult single_;
    CapturedTrace fallback_;
    const CapturedTrace *trace_ = nullptr;
    std::vector<std::string> names_;
    std::vector<ChipSpec> open_;
    std::vector<ChipSpec> governed_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed)
{
    if (name == "spec_sweep")
        return std::make_unique<SpecSweep>(seed);
    if (name == "controlled")
        return std::make_unique<Controlled>(seed);
    if (name == "chip_sweep")
        return std::make_unique<ChipSweep>(seed);
    return nullptr;
}

double
table3ErrorMv()
{
    const unsigned delays[4] = {0, 2, 4, 6};
    const double paperMv[4] = {94.0, 57.0, 51.0, 41.0};
    double sum = 0.0;
    for (size_t i = 0; i < 4; ++i)
        sum += std::fabs(referenceThresholds(2.0, delays[i]).safeWindowV() *
                             1e3 -
                         paperMv[i]);
    return sum / 4.0;
}

} // namespace perfbench
