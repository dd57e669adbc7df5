/**
 * @file
 * Execution tracing: spans, instants and counter tracks, exported as
 * Chrome trace-event JSON (Perfetto / chrome://tracing) plus a
 * wall-clock-stripped canonical form.
 *
 * The stats snapshots (metrics.hpp) answer "how much"; this layer
 * answers "when": where a campaign's wall time goes — trace-cache
 * capture vs hit, threshold-solver probes, backend batch steps,
 * governor arbitration — on a timeline a human can scrub. Design
 * points (magic-trace-style always-on ring recording, gem5's
 * stats/trace split):
 *
 *  - allocation-bounded: each thread records into a buffer owned by
 *    the tracer (so it outlives the pool threads campaigns spawn per
 *    run), reserved to a fixed capacity and appended to, so it costs
 *    memory only as it fills. A full buffer stops recording and
 *    counts drops — it never wraps or grows, so the *prefix* of every
 *    stream stays exact;
 *  - cheap: a disabled tracer costs one relaxed atomic load per
 *    record site; an enabled span is two clock reads and a buffer
 *    append. Interned name ids keep records fixed-size;
 *  - two determinism classes. TraceClass::Det events describe *what
 *    the run computed* (campaign runs, solver solves/probes, cache
 *    captures) and appear in the canonical export; TraceClass::Wall
 *    events describe *how the machine scheduled it* (cache hit/miss,
 *    queue depths, backend batch steps, arbitration) and appear only
 *    in the Chrome export.
 *
 * Canonical form: per-thread span trees are rebuilt from the event
 * streams, each root subtree is serialised to one JSON line (names,
 * nesting, args — no timestamps, no thread ids, no counters), and the
 * lines are sorted lexicographically. Spans whose *trigger* is
 * scheduling-dependent but whose *content* is deterministic (a cache
 * capture fires on whichever worker gets there first) are recorded
 * `detached`: they become canonical roots instead of children of
 * whoever happened to trigger them. The result is byte-identical
 * across thread counts whenever droppedDet() == 0 — goldenable like
 * the campaign JSONL (DESIGN.md §6).
 *
 * Phase profile: the same switch samples the wall time of the coupled
 * simulation's phases (paper Fig. 7: core, power, PDN, control, event
 * bookkeeping). A VoltageSim built while the tracer is on times 1
 * cycle in 64 of its per-cycle loop and 1 block in 64 of its batched
 * paths into its thread's totals; profile() sums them for the
 * `--stats-json` profile section. The tracer's clock, now(), is the
 * only wall-clock read in src/ (vlint det-wallclock).
 *
 * Thread contract: recording is lock-free per thread and safe from
 * any number of threads; enable/disable/reset and the exports must
 * run while no other thread is recording (campaigns join their pool
 * before the artifacts are written).
 */

#ifndef VGUARD_OBS_TRACING_HPP
#define VGUARD_OBS_TRACING_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace vguard::obs {

/** Determinism class of a trace event (see file comment). */
enum class TraceClass : uint8_t {
    Det,   ///< deterministic structure; part of the canonical form
    Wall,  ///< scheduling/timing detail; Chrome export only
};

/** Maximum key/value args attached to one span or instant
    (`chip.arbitrate` carries six). */
constexpr size_t kMaxTraceArgs = 6;

/** One recorded argument (key and any string value are interned). */
struct TraceArg
{
    enum class Kind : uint8_t { U64, F64, Str };
    uint32_t key = 0;
    Kind kind = Kind::U64;
    union
    {
        uint64_t u;
        double f;
        uint32_t s;  ///< interned string id
    } v{};
};

/** Fixed-size record in a per-thread buffer. */
struct TraceEvent
{
    enum class Type : uint8_t { Begin, End, Instant, Counter };
    Type type = Type::Begin;
    TraceClass cls = TraceClass::Det;
    /** Canonical root regardless of the current span stack. */
    bool detached = false;
    uint8_t nargs = 0;
    uint32_t name = 0;   ///< interned
    uint64_t ts = 0;     ///< ns since enable()
    double value = 0.0;  ///< counter sample value
    TraceArg args[kMaxTraceArgs];
};

/** The timed phases of one coupled-simulation cycle. */
enum class Phase : uint8_t {
    CpuStep,  ///< OoOCore::cycle()
    Power,    ///< WattchModel::current() / currentBlock()
    Pdn,      ///< PDN state-space step
    Control,  ///< sensor observe + controller/actuator apply
    Events,   ///< emergency tracking + activity window
};

constexpr size_t kNumPhases = 5;

/** Sampled phase totals; wall-clock, so never a deterministic artifact. */
struct PhaseProfile
{
    std::array<uint64_t, kNumPhases> ns{};       ///< timed wall time
    std::array<uint64_t, kNumPhases> samples{};  ///< timed intervals
    uint64_t cyclesTotal = 0;    ///< cycles simulated while tracing
    uint64_t cyclesSampled = 0;  ///< cycles inside a timed interval

    /** The --stats-json profile section: cycle counts, then per phase
        {ns, samples, share of all timed ns}. */
    std::string json() const;
};

/** Process-wide tracer. Records nothing until enable(). */
class Tracer
{
  public:
    static Tracer &instance();

    /** Default per-thread buffer capacity (events). */
    static constexpr size_t kDefaultCapacity = size_t{1} << 15;

    /**
     * Start recording spans and sampling phases. @p perThreadCapacity
     * bounds every thread's buffer; a full buffer drops (and counts)
     * instead of wrapping. Existing buffers and phase totals are
     * dropped (fresh recording epoch).
     */
    void enable(size_t perThreadCapacity = kDefaultCapacity);

    /** Stop recording; buffers stay readable for export. */
    void disable();

    /**
     * Re-arm recording after disable() WITHOUT starting a fresh
     * epoch: existing buffers (and their events) are kept and new
     * events append. Pairs with disable() for pause/resume — e.g.
     * the overhead guard in bench_simloop alternates traced and
     * untraced legs without paying a ring reallocation per leg.
     * No-op if enable() was never called.
     */
    void resume();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Drop every buffer, dropped-counter and phase total (test
     * isolation). Interned names survive — ids cached in call-site
     * statics stay valid. Caller must guarantee no concurrent
     * recording.
     */
    void reset();

    /**
     * Intern @p name, returning a stable id. Ids are assigned in
     * first-come order and therefore thread-schedule dependent; both
     * exports key on the *name string*, never the id.
     */
    uint32_t intern(std::string_view name);

    // ----------------------------------------------- phase profile

    /** Monotonic clock [ns]: the one wall-clock read in src/. */
    static uint64_t now();

    /** Phase sampling times 1 cycle or full block in this many. */
    static constexpr uint64_t kSampleEvery = 64;

    /**
     * Whether the calling thread times its next batched block: @p n
     * cycles of a loop that steps @p blockCycles at a time. A thread
     * times the blocks that cross a multiple of kSampleEvery x
     * blockCycles in its running count of batched cycles: 1 full block
     * in 64, and partial ones in proportion. The count runs on across
     * runs, so a short run is neither timed only at its cold first
     * block nor, like its equal-length siblings, always at one block.
     */
    static bool sampleBlock(uint64_t n, uint64_t blockCycles);

    /** Add one timed interval of @p phase to this thread's totals. */
    void addPhase(Phase phase, uint64_t ns);

    /** Add a simulation's cycle counts to this thread's totals. */
    void addCycles(uint64_t total, uint64_t sampled);

    /** Every thread's phase totals since enable(), summed. */
    PhaseProfile profile() const;

    // ------------------------------------------------- record sites
    // All return nullptr / no-op when disabled or the buffer is full.

    /** Record a span begin; args may be appended to the returned
        event (same thread, before the matching end). */
    TraceEvent *beginSpan(uint32_t name, TraceClass cls, bool detached);

    /** Record the end of the innermost open span of this thread. */
    void endSpan(TraceClass cls);

    /** Record a zero-duration event. */
    TraceEvent *instant(uint32_t name, TraceClass cls,
                        bool detached = false);

    /**
     * Record one sample on a counter track. Counter tracks are always
     * TraceClass::Wall: which thread samples what value when is
     * scheduling-dependent by nature.
     */
    void counter(uint32_t name, double value);

    // ------------------------------------------------------ exports

    struct Stats
    {
        uint64_t events = 0;       ///< records retained
        uint64_t droppedDet = 0;   ///< Det records lost to full buffers
        uint64_t droppedWall = 0;  ///< Wall records lost
        size_t threads = 0;        ///< buffers registered
    };

    Stats stats() const;

    /**
     * The full trace as Chrome trace-event JSON ({"traceEvents":[...]},
     * "X"/"i"/"C"/"M" phases, µs timestamps) — loadable in Perfetto
     * and chrome://tracing. Machine- and schedule-dependent.
     */
    std::string chromeJson() const;

    /**
     * The wall-clock-stripped canonical form: one JSON line per span
     * tree root (Det events only, detached spans lifted to roots),
     * lines sorted lexicographically. Byte-deterministic across
     * thread counts while droppedDet == 0.
     */
    std::string canonicalJsonl() const;

  private:
    Tracer() = default;

    struct ThreadBuf
    {
        /** Reserved to the capacity and never appended past it, so
            no append reallocates and a begin record stays put. */
        std::vector<TraceEvent> events;
        uint64_t droppedDet = 0;
        uint64_t droppedWall = 0;
        PhaseProfile phases;
    };

    ThreadBuf *threadBuf();
    TraceEvent *slot(ThreadBuf *&buf);

    mutable std::mutex m_;  ///< guards buffers_, names_, epoch bump
    std::vector<std::unique_ptr<ThreadBuf>> buffers_;
    std::vector<std::string> names_;        ///< id -> name
    std::map<std::string, uint32_t, std::less<>> index_;  ///< name -> id
    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> epoch_{1};        ///< invalidates TLS caches
    size_t capacity_ = kDefaultCapacity;
    uint64_t t0_ = 0;                       ///< enable() timestamp [ns]
};

/**
 * RAII span. Constructed with a name (interned per call); `cls` picks
 * the determinism class and `detached` lifts the span to a canonical
 * root (for work triggered by whichever thread got there first —
 * cache captures, one-per-key solves, campaign runs). arg() calls
 * attach up to kMaxTraceArgs key/values and must happen before
 * destruction, on the constructing thread.
 */
class TraceSpan
{
  public:
    TraceSpan(const char *name, TraceClass cls = TraceClass::Det,
              bool detached = false);
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    TraceSpan &arg(const char *key, uint64_t v);
    TraceSpan &arg(const char *key, double v);
    TraceSpan &arg(const char *key, const char *v);
    TraceSpan &arg(const char *key, const std::string &v);

  private:
    TraceEvent *ev_ = nullptr;  ///< begin record; null when inactive
    TraceClass cls_ = TraceClass::Det;
    bool open_ = false;
};

/** RAII-free instant with the same arg interface as TraceSpan. */
class TraceInstant
{
  public:
    explicit TraceInstant(const char *name,
                          TraceClass cls = TraceClass::Wall,
                          bool detached = false);

    TraceInstant &arg(const char *key, uint64_t v);
    TraceInstant &arg(const char *key, double v);
    TraceInstant &arg(const char *key, const char *v);

  private:
    TraceEvent *ev_ = nullptr;
};

/** Sample a counter track (no-op while the tracer is disabled). */
void traceCounter(const char *track, double value);

/**
 * RAII timer of one phase into the calling thread's profile totals.
 * Inert unless @p timed (a sampled cycle or block): no clock read and
 * no call into the tracer.
 */
class PhaseTimer
{
  public:
    PhaseTimer(bool timed, Phase phase)
        : start_(timed ? Tracer::now() : 0), phase_(phase), timed_(timed)
    {
    }

    ~PhaseTimer()
    {
        if (timed_)
            Tracer::instance().addPhase(phase_, Tracer::now() - start_);
    }

    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    uint64_t start_;
    Phase phase_;
    bool timed_;
};

} // namespace vguard::obs

#endif // VGUARD_OBS_TRACING_HPP
