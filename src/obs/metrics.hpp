/**
 * @file
 * Hierarchical statistics registry (gem5/Wattch-style).
 *
 * Every simulator component keeps its hot-path counters as plain
 * members (zero per-cycle overhead) and *binds* them into a Registry
 * under a dotted group name — `cpu.commit.insts`,
 * `power.ialu.energy_j`, `pdn.emergencies.count`,
 * `ctrl.actuator.gated_cycles` — via a `registerStats()` method. The
 * registry is the uniform, inspectable view: a Snapshot freezes every
 * value, snapshots diff/merge deterministically (submission order in
 * campaigns), and export as canonical JSON (one nested object per
 * dotted group) or a human-readable table.
 *
 * Thread-safety: registration and snapshot are mutex-guarded, and
 * registry-owned counters/gauges are atomic, so a registry may be
 * shared across campaign workers. Derived (callback-bound) entries
 * read component members and are safe whenever the component itself
 * is — in this codebase each run owns its components, so derived
 * reads happen on the owning thread only.
 *
 * Determinism: a Snapshot's entries are sorted by name and rendered
 * with the deterministic JsonWriter, so equal values always produce
 * identical bytes. Merging follows each entry's MergeRule, making the
 * campaign-level aggregate independent of worker count as long as the
 * merge happens in submission order (see core/campaign.cpp).
 */

#ifndef VGUARD_OBS_METRICS_HPP
#define VGUARD_OBS_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hpp"

namespace vguard::obs {

/** How a value combines when snapshots of parallel runs merge. */
enum class MergeRule : uint8_t { Sum, Min, Max, Last };

/** Printable merge-rule name (for table export). */
const char *mergeRuleName(MergeRule rule);

/** Registry-owned monotonic counter (atomic; relaxed). */
class Counter
{
  public:
    void inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    void set(uint64_t n) { v_.store(n, std::memory_order_relaxed); }
    uint64_t get() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/**
 * Registry-owned gauge. Starts as NaN ("no sample yet") — the JSON
 * export renders non-finite values as string sentinels, never invalid
 * tokens (see util/jsonl.cpp).
 */
class Gauge
{
  public:
    Gauge();
    void set(double x) { v_.store(x, std::memory_order_relaxed); }
    double get() const { return v_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> v_;
};

/** Registry-owned histogram (mutex-guarded add/merge). */
class HistStat
{
  public:
    HistStat(double lo, double hi, size_t bins);

    void add(double x);
    /** Copy of the current contents. */
    Histogram get() const;

  private:
    mutable std::mutex m_;
    Histogram h_;
};

/** One frozen stat value. */
struct SnapshotEntry
{
    enum class Kind : uint8_t { Counter, Gauge, Hist };

    std::string name;
    std::string desc;
    Kind kind = Kind::Counter;
    MergeRule rule = MergeRule::Sum;
    uint64_t u = 0;                          ///< Kind::Counter
    double d = 0.0;                          ///< Kind::Gauge
    std::shared_ptr<const Histogram> hist;   ///< Kind::Hist
};

/**
 * A frozen, sorted view of a registry (or a hand-built aggregate).
 * Cheap to copy between threads; all mutation is single-threaded.
 */
class Snapshot
{
  public:
    const std::vector<SnapshotEntry> &entries() const { return entries_; }
    bool empty() const { return entries_.empty(); }
    size_t size() const { return entries_.size(); }

    /** Entry lookup by full dotted name; nullptr when absent. */
    const SnapshotEntry *find(std::string_view name) const;
    /** Counter value by name (fallback when absent or not a counter). */
    uint64_t counterValue(std::string_view name,
                          uint64_t fallback = 0) const;
    /** Gauge value by name (fallback when absent or not a gauge). */
    double gaugeValue(std::string_view name, double fallback = 0.0) const;

    /**
     * Insert-or-replace a fully-formed entry, keeping sorted order.
     * Unlike merge(), no MergeRule is applied — the entry lands
     * verbatim. Used to splice cached front-end stats into a replayed
     * run's snapshot (see core/trace_cache.hpp), where rule-based
     * merging would be wrong (e.g. Min against a zeroed live entry).
     */
    void upsertEntry(SnapshotEntry entry) { upsert(std::move(entry)); }

    /** Insert-or-replace helpers for hand-built aggregates. */
    void setCounter(std::string name, uint64_t value,
                    MergeRule rule = MergeRule::Sum,
                    std::string desc = "");
    void setGauge(std::string name, double value,
                  MergeRule rule = MergeRule::Last,
                  std::string desc = "");
    void setHist(std::string name, Histogram hist,
                 std::string desc = "");

    /**
     * Merge @p other into this snapshot entry-by-entry using each
     * entry's MergeRule (Sum adds, Min/Max keep the extreme, Last
     * takes @p other's value; NaN gauges never beat real samples).
     * Entries unknown to this snapshot are inserted. Kind mismatches
     * on the same name are fatal.
     */
    void merge(const Snapshot &other);

    /**
     * Interval semantics: counters become `this - earlier` (clamped
     * at 0); gauges and histograms keep this snapshot's value.
     * Entries absent from @p earlier pass through unchanged.
     */
    Snapshot diff(const Snapshot &earlier) const;

    /**
     * Canonical JSON: one nested object per dotted group, keys in
     * sorted order, deterministic bytes for equal values. Histograms
     * render as {lo, hi, bins, underflow, overflow, total, counts}
     * with sparse [bin, count] pairs.
     */
    std::string json() const;

    /** Human-readable aligned `name  value  description` table. */
    std::string table() const;

  private:
    friend class Registry;
    /** Insert keeping sorted order; replaces an existing name. */
    void upsert(SnapshotEntry entry);

    std::vector<SnapshotEntry> entries_;   ///< sorted by name
};

/** The hierarchical registry. */
class Registry
{
  public:
    // Both out-of-line: Entry is incomplete here, and inline
    // defaulted special members would instantiate the map's cleanup
    // paths against it.
    Registry();
    ~Registry();
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Register an owned counter; fatal on duplicate/conflicting name. */
    Counter &counter(std::string name, std::string desc,
                     MergeRule rule = MergeRule::Sum);

    /** Register an owned gauge (starts NaN until first set()). */
    Gauge &gauge(std::string name, std::string desc,
                 MergeRule rule = MergeRule::Last);

    /** Register an owned histogram. */
    HistStat &histogram(std::string name, std::string desc, double lo,
                        double hi, size_t bins);

    /**
     * Bind a component-owned counter: @p fn is evaluated at snapshot
     * time (the gem5 pattern — members stay on the hot path, the
     * registry is the reporting surface).
     */
    void derivedCounter(std::string name, std::string desc,
                        std::function<uint64_t()> fn,
                        MergeRule rule = MergeRule::Sum);

    /** Bind a derived/computed gauge (e.g. `ipc = committed/cycles`). */
    void derivedGauge(std::string name, std::string desc,
                      std::function<double()> fn,
                      MergeRule rule = MergeRule::Last);

    /** Number of registered entries. */
    size_t size() const;

    /** Freeze every value into a sorted Snapshot. */
    Snapshot snapshot() const;

  private:
    struct Entry;

    /** Validates charset and hierarchy (no leaf/group collisions). */
    void checkName(const std::string &name) const;
    Entry &add(std::string name, std::string desc, MergeRule rule);

    mutable std::mutex m_;
    std::map<std::string, std::unique_ptr<Entry>> entries_;
};

} // namespace vguard::obs

#endif // VGUARD_OBS_METRICS_HPP
