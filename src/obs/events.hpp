/**
 * @file
 * Structured emergency event log.
 *
 * Table 2 of the paper counts emergencies; this module makes each one
 * *root-causable*. Every excursion of the die voltage outside the
 * operating band becomes one EmergencyEvent record: entry cycle,
 * duration, extreme voltage, the sensor/actuator state in effect when
 * the excursion began, and an **activity fingerprint** — per-
 * functional-unit access counts accumulated over the N cycles leading
 * up to the crossing. The fingerprint is what lets an experimenter ask
 * "which units were firing when the dip happened" (paper §3: stall/
 * flush/resonance patterns) without re-running with a full trace.
 * Each cycle only stores its counts in a ring; the ring is summed when
 * an episode opens.
 *
 * Events export as JSONL (one object per line, deterministic bytes via
 * JsonWriter). The log is capacity-bounded; overflow increments a
 * dropped counter instead of growing without bound during pathological
 * runs.
 */

#ifndef VGUARD_OBS_EVENTS_HPP
#define VGUARD_OBS_EVENTS_HPP

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cpu/activity.hpp"

namespace vguard::obs {

/**
 * Fingerprint channels — a reduction of cpu::ActivityVector to the
 * unit groups the paper's analysis talks about.
 */
enum class FpChannel : uint8_t {
    Fetch,     ///< instructions fetched
    Icache,    ///< IL1 accesses
    Bpred,     ///< branch predictor lookups
    Dispatch,  ///< instructions dispatched
    IntAlu,    ///< integer ALU issues
    IntMult,   ///< integer multiplier issues
    IntDiv,    ///< integer divider issues
    FpAdd,     ///< FP adder issues
    FpMult,    ///< FP multiplier issues
    FpDiv,     ///< FP divider issues
    Dl1,       ///< DL1 accesses
    L2,        ///< unified L2 accesses
    RegFile,   ///< register file reads + writes
    Commit,    ///< instructions committed
};

constexpr size_t kNumFpChannels = 14;

/** Activity-fingerprint window per emergency event [cycles]. */
constexpr size_t kFingerprintWindow = 32;

/** Emergency event-log capacity per run. */
constexpr size_t kMaxEvents = 4096;

/** Snake_case channel name (used as the JSONL fingerprint key). */
const char *fpChannelName(size_t channel);

/**
 * One cycle's per-channel counts. uint16 is lossless: every channel is
 * bounded by a machine width (the largest, regfile reads + writes, by
 * 3 x issueWidth). The same rows make up a captured trace's activity
 * stream (core/trace_cache.hpp).
 */
using ActivityRow = std::array<uint16_t, kNumFpChannels>;

/** Extract one cycle's per-channel counts from an ActivityVector
    (checks that every count fits the row). */
ActivityRow fpChannelCounts(const cpu::ActivityVector &av);

/**
 * Per-channel activity of the last N cycles: a ring of per-cycle
 * counts, summed on demand.
 */
class ActivityWindow
{
  public:
    explicit ActivityWindow(size_t window);

    /** Record one cycle's channel counts. */
    void record(const ActivityRow &counts);

    /** Per-channel sums over the last min(window, seen) cycles
        (O(window); read when an episode opens). */
    std::array<uint64_t, kNumFpChannels> sums() const;

    size_t window() const { return ring_.size(); }
    /** Total cycles recorded (may exceed the window). */
    uint64_t cyclesSeen() const { return seen_; }

  private:
    std::vector<ActivityRow> ring_;
    size_t head_ = 0;
    uint64_t seen_ = 0;
};

/** One voltage-band excursion (an "emergency episode"). */
struct EmergencyEvent
{
    uint64_t entryCycle = 0;      ///< first out-of-band cycle
    uint64_t durationCycles = 0;  ///< cycles spent out of band
    bool low = true;              ///< undershoot (true) or overshoot
    double vExtreme = 0.0;        ///< min V (low) / max V (high) seen
    double vBound = 0.0;          ///< band boundary that was crossed

    // Control-loop state at entry.
    int sensorLevel = -1;         ///< core::VoltageLevel as int; -1 none
    double sensorReading = 0.0;   ///< delayed/noisy reading; 0 if none
    bool gating = false;          ///< actuator was clock-gating
    bool phantom = false;         ///< actuator was phantom-firing

    /** Per-channel activity sums over the preceding window. */
    std::array<uint64_t, kNumFpChannels> fingerprint{};
    /** Cycles the fingerprint covers (min(window, cycles seen)). */
    uint64_t fingerprintCycles = 0;

    /**
     * Append this event as one JSONL line (with trailing newline).
     * When @p runIndex >= 0, the record leads with run attribution
     * ("run" index and "name") so campaign-wide event files stay
     * greppable per benchmark.
     */
    void appendJsonl(std::string &out, std::string_view runName = {},
                     int64_t runIndex = -1) const;
};

/** Capacity-bounded container of emergency events. */
class EventLog
{
  public:
    explicit EventLog(size_t capacity = kMaxEvents);

    /** Store @p ev, or count it as dropped when at capacity. */
    void push(EmergencyEvent ev);

    const std::vector<EmergencyEvent> &events() const { return events_; }
    /** Events discarded because the log was full. */
    uint64_t dropped() const { return dropped_; }
    /** Total episodes seen (stored + dropped). */
    uint64_t total() const { return events_.size() + dropped_; }
    size_t capacity() const { return capacity_; }

    /** All stored events as JSONL text. */
    std::string jsonl() const;

  private:
    size_t capacity_;
    std::vector<EmergencyEvent> events_;
    uint64_t dropped_ = 0;
};

/**
 * Episode detector: fed one (cycle, voltage, activity, control-state)
 * tuple per cycle, it opens an event on every band crossing, tracks
 * the extreme voltage and duration, and closes the event into the log
 * when the voltage re-enters the band (or at finish()). The
 * fingerprint is summed when the episode opens.
 */
class EmergencyTracker
{
  public:
    /** Control-loop state sampled the cycle an episode begins. */
    struct ControlState
    {
        int sensorLevel = -1;
        double sensorReading = 0.0;
        bool gating = false;
        bool phantom = false;
    };

    /**
     * @param vLoBound          lower band edge [V]
     * @param vHiBound          upper band edge [V]
     * @param fingerprintWindow cycles of activity history per event
     * @param maxEvents         EventLog capacity
     */
    EmergencyTracker(double vLoBound, double vHiBound,
                     size_t fingerprintWindow, size_t maxEvents);

    /** Feed one simulated cycle's voltage and channel counts. */
    void step(uint64_t cycle, double v, const ActivityRow &counts,
              const ControlState &ctrl);

    /** Close any episode still open at end of run. */
    void finish();

    const EventLog &log() const { return log_; }

  private:
    void close();

    double vLoBound_;
    double vHiBound_;
    ActivityWindow window_;
    EventLog log_;

    bool open_ = false;
    EmergencyEvent current_{};
};

} // namespace vguard::obs

#endif // VGUARD_OBS_EVENTS_HPP
