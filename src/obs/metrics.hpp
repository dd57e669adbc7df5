/**
 * @file
 * Hierarchical run statistics (gem5/Wattch-style).
 *
 * Every simulator component keeps its hot-path counters as plain
 * members (zero per-cycle overhead) and, when asked, appends their
 * current values to a Snapshot under a dotted group name —
 * `cpu.commit.insts`, `power.ialu.energy_j`, `pdn.emergencies.count`,
 * `ctrl.actuator.gated_cycles` — via a const `appendStats()` method.
 * A simulation runs once, so its components' counters start the run
 * at zero, and one snapshot taken when the run ends is the run's
 * stats. Snapshots merge deterministically (submission order in
 * campaigns) and export as canonical JSON (one nested object per
 * dotted group).
 *
 * Thread-safety: a Snapshot is a plain value. Each run owns its
 * components and builds its snapshot on its own thread.
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
 * A frozen, sorted set of stat values: one run's components at its
 * end, or a campaign's aggregate. Cheap to copy between threads; all
 * mutation is single-threaded.
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
     * Add a counter, keeping sorted order. Fatal on a malformed name
     * (not lowercase [a-z0-9_] segments joined by single dots), a
     * duplicate, or a name that would be both a leaf and a group
     * ("a.b" beside "a.b.c").
     */
    void addCounter(std::string name, std::string desc, uint64_t value,
                    MergeRule rule = MergeRule::Sum);
    /** Add a gauge (e.g. `ipc = committed/cycles`); same checks. */
    void addGauge(std::string name, std::string desc, double value,
                  MergeRule rule = MergeRule::Last);

    /**
     * Insert-or-replace a fully-formed entry, keeping sorted order.
     * Unlike merge(), no MergeRule is applied — the entry lands
     * verbatim. Used to splice cached front-end stats into a replayed
     * run's snapshot (see core/trace_cache.hpp), where rule-based
     * merging would be wrong (e.g. Min against a zeroed live entry).
     */
    void upsertEntry(SnapshotEntry entry);

    /**
     * Merge @p other into this snapshot entry-by-entry using each
     * entry's MergeRule (Sum adds, Min/Max keep the extreme, Last
     * takes @p other's value; NaN gauges never beat real samples).
     * Entries unknown to this snapshot are inserted. Kind mismatches
     * on the same name are fatal.
     */
    void merge(const Snapshot &other);

    /**
     * Canonical JSON: one nested object per dotted group, keys in
     * sorted order, deterministic bytes for equal values.
     */
    std::string json() const;

  private:
    /** The adders' checked insert. */
    void add(SnapshotEntry entry);

    std::vector<SnapshotEntry> entries_;   ///< sorted by name
};

} // namespace vguard::obs

#endif // VGUARD_OBS_METRICS_HPP
