/**
 * @file
 * Parallel experiment campaign engine.
 *
 * Every table/figure of the paper is a sweep of independent RunSpec
 * simulations (Fig. 10, Figs. 14-18, Tables 2-3). The campaign engine
 * runs such a sweep on a thread pool whose workers claim jobs from
 * one shared cursor, and aggregates the results *in submission
 * order*, so the output — including the JSONL artifact — is
 * byte-identical regardless of thread count.
 *
 * Determinism guarantee:
 *  - each run's sensor-noise seed is derived purely from
 *    (campaignSeed, run index) via deriveRunSeed(), never from which
 *    worker picks the job up;
 *  - runs share no mutable state (the experiment caches in
 *    experiments.cpp are thread-safe and value-deterministic);
 *  - per-run results land in a pre-sized slot indexed by submission
 *    order, and all aggregation (merged histogram, totals, stats)
 *    happens serially over that order after the pool drains.
 *
 * Thread count therefore only changes wall-clock time, never results.
 *
 * Capture-first dispatch: run() puts each trace key's first job that
 * can capture it (an open-loop job, or a compare job, whose probe leg
 * captures) ahead of all other jobs, each group in submission order,
 * and the cursor starts jobs in exactly that order. Workers then
 * capture distinct keys side by side instead of queueing on one
 * key's capture, and a closed-loop job finds its key's trace cached.
 * The order cannot reach the results: a replay is byte-identical to
 * the run it replays, a sensed replay to the full closed loop, and a
 * run's seed and result slot come from its submission index, never
 * from when it ran.
 */

#ifndef VGUARD_CORE_CAMPAIGN_HPP
#define VGUARD_CORE_CAMPAIGN_HPP

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "isa/program.hpp"
#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace vguard::core {

/** One unit of campaign work: a named program under a RunSpec. */
struct CampaignJob
{
    std::string name;      ///< label for tables/JSONL (e.g. "swim@200%")
    isa::Program program;
    RunSpec spec;
    /** Run compareControlled() instead of a single runWorkload(). */
    bool compare = false;
};

/** Result of one campaign run, tagged with its submission index. */
struct RunResult
{
    size_t index = 0;
    std::string name;
    RunSpec spec;          ///< the spec actually executed (seed resolved)
    /** The headline simulation: the run itself, or the controlled run
        of a comparison job. */
    VoltageSimResult sim;
    std::optional<Comparison> comparison;  ///< set for compare jobs
};

/** Submission-order aggregation of a whole campaign. */
struct CampaignResult
{
    std::vector<RunResult> runs;   ///< submission order, always complete

    uint64_t campaignSeed = 0;
    uint64_t totalCycles = 0;
    uint64_t totalCommitted = 0;
    uint64_t totalEmergencyCycles = 0;
    uint64_t totalGatedCycles = 0;
    double totalEnergyJ = 0.0;
    double minV = 0.0;             ///< 0 when the campaign is empty
    double maxV = 0.0;
    RunningStat ipc;               ///< per-run IPC distribution
    Histogram mergedHist{0.90, 1.10, 80};  ///< all runs' voltage samples

    /**
     * Submission-order merge of every run's per-run stats snapshot
     * (Sum/Min/Max/Last per entry's MergeRule) — deterministic for
     * any thread count.
     */
    obs::Snapshot mergedStats;

    /** Wall-clock measurement; informational only — deliberately NOT
        part of the JSONL artifact, which must be thread-count
        independent. */
    double wallSeconds = 0.0;
    unsigned threadsUsed = 0;

    /**
     * Render the whole campaign as JSONL: one object per run (spec +
     * results, plus baseline/controlled for comparison jobs) and a
     * final summary line. Byte-deterministic for a given job list and
     * campaign seed.
     */
    std::string jsonl() const;

    /**
     * The --stats-json document: {"campaign": summary, "stats":
     * mergedStats nested by dotted group, "profile": the tracer's
     * phase profile, "wall_seconds": t}. Everything except
     * "profile"/"wall_seconds" is byte-deterministic for any thread
     * count (DESIGN.md §6).
     */
    std::string statsJson() const;

    /**
     * Every run's emergency events as JSONL in submission order, each
     * record carrying its run index/name and activity fingerprint.
     * Byte-deterministic for any thread count.
     */
    std::string eventsJsonl() const;
};

/** The campaign engine: a thread pool over one shared job cursor. */
class CampaignEngine
{
  public:
    struct Options
    {
        /** Worker threads; 0 means std::thread::hardware_concurrency. */
        unsigned threads = 0;
        /** Root seed for per-run noise-seed derivation. */
        uint64_t campaignSeed = 0x5e11507;
        /** Print a progress line as each run completes (--progress).
            Completion order is nondeterministic; artifacts are not. */
        bool progress = false;
    };

    CampaignEngine() : CampaignEngine(Options{}) {}
    explicit CampaignEngine(Options opts);

    /**
     * Execute all jobs, capture leaders first (see file comment), and
     * aggregate in submission order; blocks until complete.
     */
    CampaignResult run(std::vector<CampaignJob> jobs) const;

    /**
     * Deterministic parallel-for over [0, count): parallelFor
     * (util/parallel.hpp) on threads() workers, so jobs start in index
     * order at any thread count, and each start samples the Wall
     * counter `campaign.queue.pending`. @p fn must write only to
     * index-private state. Used e.g. to warm the threshold cache for
     * Table 3. Exceptions from @p fn are rethrown (first one wins)
     * after the pool drains.
     */
    void forEach(size_t count,
                 const std::function<void(size_t)> &fn) const;

    /** Effective worker count (resolves the 0 = auto default). */
    unsigned threads() const;

    const Options &options() const { return opts_; }

  private:
    Options opts_;
};

/** Parsed campaign-wide command-line options. */
struct CampaignCli
{
    CampaignEngine::Options options;
    std::string jsonlPath;                 ///< --jsonl FILE; "" = none
    std::string statsJsonPath;             ///< --stats-json FILE
    std::string eventsPath;                ///< --events FILE
    std::string tracePath;                 ///< --trace FILE (Chrome JSON)
    std::string traceCanonicalPath;        ///< --trace-canonical FILE
    std::vector<std::string> positional;   ///< bare (non-flag) arguments
};

/** The output flags a binary writes, combined with `|`. */
enum CampaignOutputs : unsigned
{
    kJsonlOutput = 1u << 0,      ///< --jsonl
    kStatsJsonOutput = 1u << 1,  ///< --stats-json
    kEventsOutput = 1u << 2,     ///< --events
    kTraceOutput = 1u << 3,      ///< --trace and --trace-canonical
    /** What writeCampaignArtifacts writes. */
    kAllOutputs = kJsonlOutput | kStatsJsonOutput | kEventsOutput |
                  kTraceOutput,
};

/**
 * Parse the shared campaign flags out of argv: `--threads N`,
 * `--seed S`, `--jsonl FILE`, `--stats-json FILE` (enables the
 * obs::Tracer, whose phase profile the document carries), `--events
 * FILE`, `--trace FILE` (Chrome trace-event JSON; enables the
 * tracer), `--trace-canonical FILE` (the wall-clock-stripped
 * canonical form; also enables the tracer),
 * `--progress` (also `--flag=value` forms). Arguments that do not
 * start with `--` are returned as positionals in order; an unknown
 * `--flag`, an output flag outside @p outputs (the ones this binary
 * writes) or a malformed value is fatal().
 * Shared by the bench binaries and examples so every sweep exposes
 * the same knobs.
 */
CampaignCli parseCampaignCli(int argc, char **argv,
                             unsigned outputs = kAllOutputs);

/**
 * The end of every campaign binary: print the `campaign: N runs on T
 * threads in S s` line, write result.jsonl(), result.statsJson() and
 * result.eventsJsonl() to the --jsonl, --stats-json and --events
 * paths that are set, then writeCampaignTrace(cli). Prints one
 * `campaign: wrote ...` line per file (one for the trace exports);
 * fatal() on an I/O error.
 */
void writeCampaignArtifacts(const CampaignCli &cli,
                            const CampaignResult &result);

/**
 * Export the process-wide tracer to cli.tracePath (Chrome trace-event
 * JSON) and/or cli.traceCanonicalPath (canonical JSONL). Call after
 * the campaign has joined its pool (no thread is still recording).
 * No-op (returns false) when neither path is set. Public for binaries
 * that trace without a CampaignResult.
 */
bool writeCampaignTrace(const CampaignCli &cli);

} // namespace vguard::core

#endif // VGUARD_CORE_CAMPAIGN_HPP
