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
 * dotted group).
 *
 * Thread-safety: registration and snapshot are mutex-guarded. Entries
 * are callback-bound: they read component members and are safe
 * whenever the component itself is — in this codebase each run owns
 * its components, so reads happen on the owning thread only.
 *
 * Determinism: a Snapshot's entries are sorted by name and rendered
 * with the deterministic JsonWriter, so equal values always produce
 * identical bytes. Merging follows each entry's MergeRule, making the
 * campaign-level aggregate independent of worker count as long as the
 * merge happens in submission order (see core/campaign.cpp).
 */

#ifndef VGUARD_OBS_METRICS_HPP
#define VGUARD_OBS_METRICS_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace vguard::obs {

/** How a value combines when snapshots of parallel runs merge. */
enum class MergeRule : uint8_t { Sum, Min, Max, Last };

/** One frozen stat value. */
struct SnapshotEntry
{
    enum class Kind : uint8_t { Counter, Gauge };

    std::string name;
    std::string desc;
    Kind kind = Kind::Counter;
    MergeRule rule = MergeRule::Sum;
    uint64_t u = 0;    ///< Kind::Counter
    double d = 0.0;    ///< Kind::Gauge
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
     * at 0); gauges keep this snapshot's value. Entries absent from
     * @p earlier pass through unchanged.
     */
    Snapshot diff(const Snapshot &earlier) const;

    /**
     * Canonical JSON: one nested object per dotted group, keys in
     * sorted order, deterministic bytes for equal values.
     */
    std::string json() const;

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

    /**
     * Bind a component-owned counter: @p fn is evaluated at snapshot
     * time (the gem5 pattern — members stay on the hot path, the
     * registry is the reporting surface). Fatal on a duplicate or
     * conflicting name.
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
