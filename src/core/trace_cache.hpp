/**
 * @file
 * Current-trace cache for open-loop replay.
 *
 * The paper's sweeps (Figs. 10/14/15, Tables 2/3) re-run the identical
 * deterministic OoO core + Wattch front end for every uncontrolled
 * leg: baselines, calibration runs, voltage-distribution runs. Without
 * a controller there is no actuation feedback, so the per-cycle
 * current waveform depends only on (program, CpuConfig, PowerConfig)
 * and the run limits — not on the package being swept and not on the
 * sensor-noise seed (the noise stream is never sampled). This module
 * captures that waveform once, caches it in-process, and lets
 * VoltageSim::runReplay() re-evaluate any PDN against it at a small
 * fraction of the full-core cost (see bench/bench_simloop.cpp).
 *
 * Cache key: the exact serialised bytes of the program's instructions,
 * every CpuConfig and PowerConfig field, and the (maxCycles, maxInsts)
 * run limits. Using exact bytes (not a hash) rules out collisions;
 * including the limits makes the captured termination condition and
 * front-end stats reproduce exactly. The key deliberately excludes the
 * package parameters and the noise seed — that is what makes one
 * capture reusable across a whole impedance sweep (the ISSUE's
 * "(workload, CpuConfig, PowerConfig, seed)" key would defeat
 * cross-run reuse, because campaigns derive a distinct seed per run;
 * see DESIGN.md "Trace replay").
 *
 * Thread safety follows the referenceThresholds() pattern: a mutex
 * guards the key map only for lookup/insert; the expensive capture
 * runs outside that lock under a per-key once_flag, so concurrent
 * first calls on one key collapse to a single capture while distinct
 * keys capture in parallel. Entries are heap-allocated so returned
 * traces stay put across rebalancing inserts, and are immutable
 * once the once_flag is done — replays share them read-only.
 *
 * Closed-loop runs read the cache through find(), a hit-only lookup:
 * while the controller stays passive a closed loop is the open-loop
 * run of the same key (DESIGN.md "Trace replay"), so it may replay a
 * trace some open-loop leg already left here, but it must never
 * capture one just to speculate. A once_flag cannot be queried, so
 * find() reads the entry's `retained` bit under the map mutex instead:
 * retain() sets it under that mutex after the trace is final, which
 * publishes the trace to find() as a release/acquire pair would.
 *
 * Environment knobs: VGUARD_TRACE_CACHE=0 (or "off") disables the
 * cache entirely; VGUARD_TRACE_CACHE_MB caps retained trace bytes
 * (default 1024 MB — a 200k-cycle trace is ~7 MB).
 */

#ifndef VGUARD_CORE_TRACE_CACHE_HPP
#define VGUARD_CORE_TRACE_CACHE_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cpu/config.hpp"
#include "isa/program.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "power/wattch.hpp"

namespace vguard::core {

/**
 * One captured open-loop run: the per-cycle current waveform, the
 * compact per-cycle activity fingerprint stream (enough to reproduce
 * emergency-event fingerprints without the core), and the front-end
 * results a replay cannot recompute.
 *
 * Two storage modes share this struct. A *captured* trace owns its
 * waveform in the vectors below. A trace *loaded* from the persistent
 * store (core/trace_store.hpp) is a zero-copy view into an mmapped
 * file: `mapping` keeps the file mapped (type-erased so this header
 * needs no store types) and the view pointers alias it. Readers must
 * go through cycles()/ampsData()/activityData(), which dispatch on
 * the mode; the vectors are the *capture-side write interface* only.
 */
struct CapturedTrace
{
    /** Amps drawn each cycle (exact doubles from WattchModel). */
    std::vector<double> amps;
    /** Per-cycle fingerprint-channel counts (obs::fpChannelCounts). */
    std::vector<obs::ActivityRow> activity;

    /** Committed instructions at end of the capture run. */
    uint64_t committed = 0;
    /** Whether the program halted within the limits. */
    bool halted = false;
    /**
     * The capture run's cpu.* / power.* snapshot entries. A replay
     * never steps the core or the power model, so its live interval
     * diff reports zeros for these; runReplay() splices these cached
     * entries in verbatim instead (obs::Snapshot::upsertEntry).
     */
    obs::Snapshot frontEnd;

    /**
     * Keep-alive for a store-loaded trace's mapped file; null for a
     * captured trace. The deleter (set by the store) unmaps the file,
     * so views stay valid as long as any copy of this trace lives.
     */
    std::shared_ptr<const void> mapping;
    /** Mapped per-cycle waveform/fingerprints (when `mapping` set). */
    const double *ampsView = nullptr;
    const obs::ActivityRow *activityView = nullptr;
    size_t viewCycles = 0;

    /** Cycles in the trace, whichever mode stores them. */
    size_t
    cycles() const
    {
        return mapping ? viewCycles : amps.size();
    }

    /** Per-cycle amps, cycles() entries. */
    const double *
    ampsData() const
    {
        return mapping ? ampsView : amps.data();
    }

    /** Per-cycle fingerprint counts, cycles() entries. */
    const obs::ActivityRow *
    activityData() const
    {
        return mapping ? activityView : activity.data();
    }

    /** Approximate retained bytes — heap or mapped — for budgets. */
    size_t bytes() const;
};

/**
 * Exact serialised cache key (see file comment for what it includes
 * and why seed/package are deliberately absent).
 */
std::string traceKey(const isa::Program &program,
                     const cpu::CpuConfig &cpu,
                     const power::PowerConfig &power, uint64_t maxCycles,
                     uint64_t maxInsts);

/** The cpu.* / power.* subset of a run's stats snapshot. */
obs::Snapshot frontEndSubset(const obs::Snapshot &stats);

/**
 * Strict parse of a numeric environment knob: 1 to @p maxDigits ASCII
 * decimal digits, no sign, no whitespace, no trailing text. Returns
 * false (leaving @p value untouched) on anything else — "-5" or
 * "10abc" are rejected, never coerced the way strtoull would.
 * @p maxDigits (at most 19, so the value always fits uint64_t) lets
 * each knob bound its value below whatever unit conversion follows.
 */
bool parseUnsignedDecimal(const std::string &text, size_t maxDigits,
                          uint64_t &value);

/**
 * Strict parse of a VGUARD_TRACE_CACHE_MB value: parseUnsignedDecimal
 * with a 7-digit cap. Returns false (leaving @p mb untouched) on
 * anything else. Exposed so tests can exercise the parser directly:
 * the singleton reads the environment exactly once, at first use.
 */
bool parseTraceCacheMb(const std::string &text, size_t &mb);

/**
 * Strict parse of a VGUARD_TRACE_CACHE toggle: "1"/"on"/"true" enable,
 * "0"/"off"/"false" disable. Returns false (leaving @p on untouched)
 * for any other value instead of silently treating it as enabled.
 */
bool parseTraceCacheEnabled(const std::string &text, bool &on);

/** Process-wide cache of captured open-loop traces. */
class TraceCache
{
  public:
    static TraceCache &instance();

    using CaptureFn = std::function<CapturedTrace()>;

    /**
     * The trace of @p key; there is always one. The first call on a key
     * loads it from the persistent store or runs @p capture, under the
     * key's once_flag (concurrent first calls run it exactly once; the
     * others block, then read its result). The returned trace is:
     *  - the cached one, when the key's trace was retained;
     *  - else the trace this call captured or loaded, moved into
     *    @p own, when the cache is off or the trace is over the byte
     *    budget;
     *  - else, when another call's trace was dropped by the budget, a
     *    fresh capture into @p own.
     * @p own must outlive the returned reference. A call that finds
     * the entry not yet retained runs call_once inside a Wall span
     * `trace_cache.fetch` (arg `captured`: 1 on the capturing call),
     * so time spent waiting on another worker's capture is named. A
     * disabled cache only runs @p capture: no entry, no store, no
     * counter.
     */
    const CapturedTrace &fetchOrCapture(const std::string &key,
                                        CapturedTrace &own,
                                        const CaptureFn &capture);

    /**
     * Hit-only lookup: the trace cached under @p key if its capture
     * or store load has finished and the trace was retained, else
     * nullptr. Never captures, never loads from the store, never
     * consumes the key's once_flag and never counts a capture, hit or
     * miss, so the counters describe open-loop traffic alone.
     */
    const CapturedTrace *find(const std::string &key) const;

    bool enabled() const;
    /** Tests/benches toggle the cache to compare against full runs. */
    void setEnabled(bool on);

    /**
     * Drop every entry (test isolation only — callers must guarantee
     * no replay is concurrently reading a cached trace).
     */
    void clear();

    /**
     * Capture runs: one per key whose first call found no stored
     * trace, plus one per later fetch of a key the budget dropped.
     */
    uint64_t captures() const;
    /**
     * Fetches that returned a retained trace they did not capture
     * (another call's capture, or a store load). Every fetch on an
     * enabled cache counts exactly one hit or one miss.
     */
    uint64_t hits() const;
    /**
     * Every other fetch: the capturing call of each key, and each
     * fetch whose trace was not retained (over the byte budget).
     */
    uint64_t misses() const;
    /** Captured traces dropped (never retained) by the byte budget. */
    uint64_t evicts() const;
    /** Retained entries / approximate retained bytes. */
    size_t entries() const;
    size_t bytes() const;

  private:
    TraceCache();

    struct Entry
    {
        std::once_flag once;
        CapturedTrace trace;
        /**
         * False when the trace blew the byte budget and went to the
         * capturing call's `own`. Written under m_ once `trace` is
         * final, so find() reads it under m_ in place of the once_flag.
         */
        bool retained = false;
    };

    /** Charge e->trace to the byte budget; false when it does not fit. */
    bool retain(Entry *e);

    mutable std::mutex m_;
    std::map<std::string, std::unique_ptr<Entry>> map_;
    size_t bytes_ = 0;        ///< retained trace bytes (under m_)
    size_t retained_ = 0;     ///< retained entry count (under m_)
    size_t maxBytes_;
    std::atomic<bool> enabled_;
    std::atomic<uint64_t> captures_{0};
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> evicts_{0};
};

} // namespace vguard::core

#endif // VGUARD_CORE_TRACE_CACHE_HPP
