#include "core/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <thread>

#include "core/actuator.hpp"
#include "core/trace_cache.hpp"
#include "core/trace_store.hpp"
#include "obs/tracing.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace vguard::core {

CampaignEngine::CampaignEngine(Options opts) : opts_(opts) {}

unsigned
CampaignEngine::threads() const
{
    if (opts_.threads > 0)
        return opts_.threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
CampaignEngine::forEach(size_t count,
                        const std::function<void(size_t)> &fn) const
{
    parallelFor(count, threads(), [&](size_t job) {
        // Wall-class by construction: how many jobs are still
        // unclaimed when this one starts is pure scheduling.
        obs::traceCounter("campaign.queue.pending",
                          static_cast<double>(count - job - 1));
        fn(job);
    });
}

namespace {

/**
 * Fill every aggregate field of @p out (totals, min/max V, IPC
 * distribution, merged histogram/stats) from out.runs.
 */
void
aggregateCampaignRuns(CampaignResult &out)
{
    // Serial aggregation in submission order: byte-identical results
    // for any thread count.
    bool first = true;
    for (const RunResult &rr : out.runs) {
        out.totalCycles += rr.sim.cycles;
        out.totalCommitted += rr.sim.committed;
        out.totalEmergencyCycles += rr.sim.emergencyCycles();
        out.totalGatedCycles += rr.sim.gatedCycles;
        out.totalEnergyJ += rr.sim.energyJ;
        if (first) {
            out.minV = rr.sim.minV;
            out.maxV = rr.sim.maxV;
            first = false;
        } else {
            out.minV = std::min(out.minV, rr.sim.minV);
            out.maxV = std::max(out.maxV, rr.sim.maxV);
        }
        out.ipc.add(rr.sim.ipc);
        out.mergedHist.merge(rr.sim.voltageHist);
        out.mergedStats.merge(rr.sim.stats);
    }
}

/**
 * Capture-first dispatch order (see campaign.hpp): for each trace key
 * the first job that can capture it (open loop, or a compare job's
 * probe leg), then every other job, each group in submission order.
 */
std::vector<size_t>
captureFirstOrder(const std::vector<CampaignJob> &jobs)
{
    std::vector<size_t> order, rest;
    std::set<std::string> keys;
    for (size_t i = 0; i < jobs.size(); ++i) {
        const CampaignJob &job = jobs[i];
        const bool leads =
            (job.compare || !job.spec.controllerEnabled) &&
            keys.insert(openLoopKey(job.program, job.spec)).second;
        (leads ? order : rest).push_back(i);
    }
    order.insert(order.end(), rest.begin(), rest.end());
    return order;
}

} // namespace

CampaignResult
CampaignEngine::run(std::vector<CampaignJob> jobs) const
{
    // Whole-campaign wall time on the tracer's clock (vlint
    // det-wallclock); feeds only the machine-dependent wallSeconds
    // field and the progress line, never the JSONL artifacts.
    const uint64_t t0 = obs::Tracer::now();
    const auto seconds = [t0] {
        return static_cast<double>(obs::Tracer::now() - t0) * 1e-9;
    };

    CampaignResult out;
    out.campaignSeed = opts_.campaignSeed;
    out.threadsUsed = static_cast<unsigned>(
        std::min<size_t>(threads(), std::max<size_t>(jobs.size(), 1)));
    out.runs.resize(jobs.size());

    const std::vector<size_t> order = captureFirstOrder(jobs);
    std::atomic<size_t> completed{0};
    forEach(jobs.size(), [&](size_t k) {
        const size_t i = order[k];
        const CampaignJob &job = jobs[i];
        RunResult &rr = out.runs[i];
        rr.index = i;
        rr.name = job.name;
        RunSpec spec = job.spec;
        spec.noiseSeed = deriveRunSeed(opts_.campaignSeed, i);
        rr.spec = spec;
        {
            // Detached: which worker executes run i is scheduling;
            // the run itself is not. One canonical root per run.
            obs::TraceSpan span("campaign.run", obs::TraceClass::Det,
                                true);
            if (job.compare) {
                rr.comparison = compareControlled(job.program, spec);
                rr.sim = rr.comparison->controlled;
            } else {
                rr.sim = runWorkload(job.program, spec);
            }
            span.arg("index", uint64_t{i})
                .arg("name", job.name)
                .arg("cycles", rr.sim.cycles);
        }
        if (opts_.progress) {
            // Completion order is worker-dependent; this is purely a
            // liveness indicator, never an artifact. inform() renders
            // into one buffer and emits a single fwrite, so lines
            // from concurrent workers never tear.
            const size_t done =
                completed.fetch_add(1, std::memory_order_relaxed) + 1;
            const double secs = seconds();
            const double rate =
                secs > 0.0 ? static_cast<double>(done) / secs : 0.0;
            const double etaS =
                rate > 0.0
                    ? static_cast<double>(jobs.size() - done) / rate
                    : 0.0;
            inform("campaign: %zu/%zu done (%s) %.1f runs/s eta %.1fs",
                   done, jobs.size(), job.name.c_str(), rate, etaS);
        }
    });

    aggregateCampaignRuns(out);

    out.wallSeconds = seconds();
    return out;
}

namespace {

void
emitSpec(JsonWriter &w, const RunSpec &spec)
{
    w.key("spec").beginObject();
    w.field("impedanceScale", spec.impedanceScale);
    w.field("delayCycles", spec.delayCycles);
    w.field("sensorError", spec.sensorError);
    w.field("actuator", actuatorName(spec.actuator));
    w.field("controller", spec.controllerEnabled);
    // State space is the only runtime back-end; the key stays so the
    // artifact bytes (goldens, benchmark oracle digests) do not move.
    w.field("convolution", false);
    w.field("maxCycles", spec.maxCycles);
    w.field("noiseSeed", spec.noiseSeed);
    w.endObject();
}

/** A voltage histogram as sparse [bin, count] pairs, which keep the
    artifact small: most of the 80 bins are empty for a quiet
    workload. */
void
emitHist(JsonWriter &w, const Histogram &h)
{
    w.key("hist").beginObject();
    w.field("lo", h.lo());
    w.field("hi", h.hi());
    w.field("bins", static_cast<uint64_t>(h.bins()));
    w.field("underflow", h.underflow());
    w.field("overflow", h.overflow());
    w.field("total", h.total());
    w.key("counts").beginArray();
    for (size_t i = 0; i < h.bins(); ++i) {
        if (h.count(i) == 0)
            continue;
        w.beginArray()
            .value(static_cast<uint64_t>(i))
            .value(h.count(i))
            .endArray();
    }
    w.endArray();
    w.endObject();
}

void
emitSim(JsonWriter &w, std::string_view name, const VoltageSimResult &r)
{
    w.key(name).beginObject();
    w.field("cycles", r.cycles);
    w.field("committed", r.committed);
    w.field("ipc", r.ipc);
    w.field("energyJ", r.energyJ);
    w.field("avgPowerW", r.avgPowerW);
    w.field("minV", r.minV);
    w.field("maxV", r.maxV);
    w.field("lowEmergencyCycles", r.lowEmergencyCycles);
    w.field("highEmergencyCycles", r.highEmergencyCycles);
    w.field("gatedCycles", r.gatedCycles);
    w.field("phantomCycles", r.phantomCycles);
    w.field("lowTriggers", r.lowTriggers);
    w.field("highTriggers", r.highTriggers);
    emitHist(w, r.voltageHist);
    w.endObject();
}

} // namespace

std::string
CampaignResult::jsonl() const
{
    std::string out;
    JsonWriter w;
    for (const RunResult &rr : runs) {
        w.beginObject();
        w.field("index", static_cast<uint64_t>(rr.index));
        w.field("name", rr.name);
        emitSpec(w, rr.spec);
        if (rr.comparison) {
            emitSim(w, "baseline", rr.comparison->baseline);
            emitSim(w, "controlled", rr.comparison->controlled);
            w.field("perfLossPct", rr.comparison->perfLossPct);
            w.field("energyIncreasePct",
                    rr.comparison->energyIncreasePct);
        } else {
            emitSim(w, "result", rr.sim);
        }
        w.endObject();
        out += w.take();
        out += '\n';
    }

    w.beginObject();
    w.field("summary", true);
    w.field("campaignSeed", campaignSeed);
    w.field("runs", static_cast<uint64_t>(runs.size()));
    w.field("totalCycles", totalCycles);
    w.field("totalCommitted", totalCommitted);
    w.field("totalEmergencyCycles", totalEmergencyCycles);
    w.field("totalGatedCycles", totalGatedCycles);
    w.field("totalEnergyJ", totalEnergyJ);
    w.field("minV", minV);
    w.field("maxV", maxV);
    w.field("meanIpc", ipc.mean());
    emitHist(w, mergedHist);
    w.endObject();
    out += w.take();
    out += '\n';
    return out;
}

std::string
CampaignResult::statsJson() const
{
    // Hand-spliced top level: the nested stats/profile sections are
    // already rendered by their own deterministic emitters.
    JsonWriter w;
    w.beginObject();
    w.field("seed", campaignSeed);
    w.field("runs", static_cast<uint64_t>(runs.size()));
    w.field("total_cycles", totalCycles);
    w.field("total_committed", totalCommitted);
    w.field("total_emergency_cycles", totalEmergencyCycles);
    w.field("total_gated_cycles", totalGatedCycles);
    w.field("total_energy_j", totalEnergyJ);
    w.field("min_v", minV);
    w.field("max_v", maxV);
    uint64_t episodes = 0, dropped = 0;
    for (const RunResult &rr : runs) {
        episodes += rr.sim.events.total();
        dropped += rr.sim.events.dropped();
    }
    w.field("emergency_episodes", episodes);
    w.field("dropped_events", dropped);
    w.endObject();

    std::string out = "{\"campaign\":";
    out += w.take();
    out += ",\"stats\":";
    out += mergedStats.json();
    // Everything below this point is wall-clock derived and therefore
    // machine/thread dependent; tooling comparing artifacts across
    // thread counts must only look at "campaign" and "stats".
    out += ",\"profile\":";
    out += obs::Tracer::instance().profile().json();
    // Trace-cache counters live in the machine-dependent zone too:
    // the cache persists in-process across campaigns, so hit/capture
    // splits depend on what ran before in this process.
    {
        const TraceCache &tc = TraceCache::instance();
        JsonWriter tw;
        tw.beginObject();
        tw.field("enabled", tc.enabled());
        tw.field("captures", tc.captures());
        tw.field("hits", tc.hits());
        tw.field("misses", tc.misses());
        tw.field("evicts", tc.evicts());
        tw.field("entries", static_cast<uint64_t>(tc.entries()));
        tw.field("bytes", static_cast<uint64_t>(tc.bytes()));
        tw.endObject();
        out += ",\"trace_cache\":";
        out += tw.take();
    }
    // Persistent-store counters: same machine-dependent caveat, plus
    // they depend on what other *processes* left in the store dir.
    {
        const TraceStore &ts = TraceStore::instance();
        JsonWriter tw;
        tw.beginObject();
        tw.field("enabled", ts.enabled());
        tw.field("hits", ts.hits());
        tw.field("misses", ts.misses());
        tw.field("rejects", ts.rejects());
        tw.field("writes", ts.writes());
        tw.field("evicts", ts.evicts());
        tw.field("mapped_bytes",
                 static_cast<uint64_t>(ts.mappedBytes()));
        tw.endObject();
        out += ",\"trace_store\":";
        out += tw.take();
    }
    out += ",\"wall_seconds\":";
    out += JsonWriter::number(wallSeconds);
    out += ",\"threads\":";
    out += std::to_string(threadsUsed);
    out += "}";
    return out;
}

std::string
CampaignResult::eventsJsonl() const
{
    std::string out;
    for (const RunResult &rr : runs)
        for (const auto &ev : rr.sim.events.events())
            ev.appendJsonl(out, rr.name,
                           static_cast<int64_t>(rr.index));
    return out;
}

CampaignCli
parseCampaignCli(int argc, char **argv, unsigned outputs)
{
    CampaignCli cli;
    auto numeric = [](const char *flag, const char *text,
                      uint64_t max) -> uint64_t {
        // strtoull silently accepts a leading '-' and wraps it to a
        // huge unsigned value ("--seed -1" would become 2^64-1), so
        // reject any sign explicitly before converting.
        const char *p = text;
        while (*p == ' ' || *p == '\t')
            ++p;
        if (*p == '-')
            fatal("%s: expected a non-negative number, got '%s'", flag,
                  text);
        char *end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(text, &end, 0);
        if (end == text || *end != '\0')
            fatal("%s: expected a number, got '%s'", flag, text);
        if (errno == ERANGE || v > max)
            fatal("%s: value out of range: '%s'", flag, text);
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string inlineValue;
        const auto eq = arg.find('=');
        if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
            inlineValue = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        }
        auto takeValue = [&](const char *flag) -> std::string {
            if (!inlineValue.empty() || eq != std::string::npos)
                return inlineValue;
            if (i + 1 >= argc)
                fatal("%s: missing value", flag);
            return argv[++i];
        };
        // An output this binary never writes must not be accepted and
        // silently dropped.
        auto takePath = [&](const char *flag, unsigned output) {
            if (!(outputs & output))
                fatal("%s: this program does not write it", flag);
            std::string path = takeValue(flag);
            if (path.empty())
                fatal("%s: missing value", flag);
            return path;
        };
        if (arg == "--threads") {
            cli.options.threads = static_cast<unsigned>(
                numeric("--threads", takeValue("--threads").c_str(),
                        std::numeric_limits<unsigned>::max()));
        } else if (arg == "--seed") {
            cli.options.campaignSeed =
                numeric("--seed", takeValue("--seed").c_str(),
                        std::numeric_limits<uint64_t>::max());
        } else if (arg == "--jsonl") {
            cli.jsonlPath = takePath("--jsonl", kJsonlOutput);
        } else if (arg == "--stats-json") {
            cli.statsJsonPath = takePath("--stats-json", kStatsJsonOutput);
        } else if (arg == "--events") {
            cli.eventsPath = takePath("--events", kEventsOutput);
        } else if (arg == "--trace") {
            cli.tracePath = takePath("--trace", kTraceOutput);
        } else if (arg == "--trace-canonical") {
            cli.traceCanonicalPath =
                takePath("--trace-canonical", kTraceOutput);
        } else if (arg == "--progress") {
            cli.options.progress = true;
        } else if (arg.rfind("--", 0) == 0) {
            // A misspelt flag must not pass as an ignored positional.
            fatal("unknown option '%s'", argv[i]);
        } else {
            cli.positional.push_back(std::move(arg));
        }
    }
    // Recording must cover the campaign itself, so the tracer turns
    // on here — at CLI-parse time, before any job runs. The stats
    // document carries the tracer's phase profile.
    if (!cli.tracePath.empty() || !cli.traceCanonicalPath.empty() ||
        !cli.statsJsonPath.empty())
        obs::Tracer::instance().enable();
    return cli;
}

namespace {

void
writeTextFile(const std::string &text, const std::string &path,
              const char *what)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("%s: cannot open '%s': %s", what, path.c_str(),
              std::strerror(errno));
    const size_t written = std::fwrite(text.data(), 1, text.size(), f);
    const int closed = std::fclose(f);
    if (written != text.size() || closed != 0)
        fatal("%s: short write to '%s'", what, path.c_str());
}

} // namespace

void
writeCampaignArtifacts(const CampaignCli &cli,
                       const CampaignResult &result)
{
    std::printf("campaign: %zu runs on %u threads in %.2f s\n",
                result.runs.size(), result.threadsUsed,
                result.wallSeconds);
    // Each document is rendered only when its flag asks for it.
    const auto write = [](const std::string &path, const char *flag,
                          const auto &render) {
        if (path.empty())
            return;
        writeTextFile(render(), path, flag);
        std::printf("campaign: wrote %s\n", path.c_str());
    };
    write(cli.jsonlPath, "--jsonl", [&] { return result.jsonl(); });
    write(cli.statsJsonPath, "--stats-json",
          [&] { return result.statsJson() + "\n"; });
    write(cli.eventsPath, "--events",
          [&] { return result.eventsJsonl(); });
    if (writeCampaignTrace(cli))
        std::printf("campaign: wrote trace artifacts\n");
}

bool
writeCampaignTrace(const CampaignCli &cli)
{
    if (cli.tracePath.empty() && cli.traceCanonicalPath.empty())
        return false;
    obs::Tracer &tracer = obs::Tracer::instance();
    // Quiesce before export: the campaign pool has joined by the time
    // artifact writers run, so disabling here is safe and makes the
    // export a stable snapshot.
    tracer.disable();
    const obs::Tracer::Stats st = tracer.stats();
    if (st.droppedDet > 0)
        warn("trace: %llu deterministic events dropped (raise the "
             "buffer capacity); canonical form is not golden-stable",
             static_cast<unsigned long long>(st.droppedDet));
    if (!cli.tracePath.empty())
        writeTextFile(tracer.chromeJson(), cli.tracePath, "--trace");
    if (!cli.traceCanonicalPath.empty())
        writeTextFile(tracer.canonicalJsonl(), cli.traceCanonicalPath,
                      "--trace-canonical");
    return true;
}

} // namespace vguard::core
