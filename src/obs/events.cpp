#include "obs/events.hpp"

#include <algorithm>

#include "util/jsonl.hpp"
#include "util/logging.hpp"

namespace vguard::obs {

namespace {

constexpr const char *kChannelNames[kNumFpChannels] = {
    "fetch",    "icache",  "bpred",   "dispatch", "int_alu",
    "int_mult", "int_div", "fp_add",  "fp_mult",  "fp_div",
    "dl1",      "l2",      "regfile", "commit",
};

} // namespace

const char *
fpChannelName(size_t channel)
{
    if (channel >= kNumFpChannels)
        panic("fpChannelName: channel %zu out of range", channel);
    return kChannelNames[channel];
}

ActivityRow
fpChannelCounts(const cpu::ActivityVector &av)
{
    std::array<uint32_t, kNumFpChannels> c{};
    c[size_t(FpChannel::Fetch)] = av.fetched;
    c[size_t(FpChannel::Icache)] = av.icacheAccesses;
    c[size_t(FpChannel::Bpred)] = av.bpredLookups;
    c[size_t(FpChannel::Dispatch)] = av.dispatched;
    c[size_t(FpChannel::IntAlu)] = av.issuedIntAlu;
    c[size_t(FpChannel::IntMult)] = av.issuedIntMult;
    c[size_t(FpChannel::IntDiv)] = av.issuedIntDiv;
    c[size_t(FpChannel::FpAdd)] = av.issuedFpAdd;
    c[size_t(FpChannel::FpMult)] = av.issuedFpMult;
    c[size_t(FpChannel::FpDiv)] = av.issuedFpDiv;
    c[size_t(FpChannel::Dl1)] = av.dcacheAccesses;
    c[size_t(FpChannel::L2)] = av.l2Accesses;
    c[size_t(FpChannel::RegFile)] = av.regReads + av.regWrites;
    c[size_t(FpChannel::Commit)] = av.committed;

    ActivityRow row;
    uint32_t any = 0;
    for (size_t i = 0; i < kNumFpChannels; ++i) {
        any |= c[i];
        row[i] = static_cast<uint16_t>(c[i]);
    }
    VGUARD_CHECK(any <= 0xffffu);
    return row;
}

// ------------------------------------------------------- ActivityWindow

ActivityWindow::ActivityWindow(size_t window)
{
    if (window == 0)
        fatal("ActivityWindow: window must be >= 1");
    ring_.resize(window);
}

void
ActivityWindow::record(const ActivityRow &counts)
{
    ring_[head_] = counts;
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    ++seen_;
}

std::array<uint64_t, kNumFpChannels>
ActivityWindow::sums() const
{
    // Slots not yet recorded hold zeros, so the whole ring sums the
    // last min(window, seen) cycles.
    std::array<uint64_t, kNumFpChannels> s{};
    for (const ActivityRow &row : ring_)
        for (size_t i = 0; i < kNumFpChannels; ++i)
            s[i] += row[i];
    return s;
}

// ------------------------------------------------------- EmergencyEvent

void
EmergencyEvent::appendJsonl(std::string &out, std::string_view runName,
                            int64_t runIndex) const
{
    JsonWriter w;
    w.beginObject();
    if (runIndex >= 0) {
        w.field("run", static_cast<uint64_t>(runIndex));
        w.field("name", runName);
    }
    w.field("cycle", entryCycle);
    w.field("duration", durationCycles);
    w.field("kind", low ? "low" : "high");
    w.field("v_extreme", vExtreme);
    w.field("v_bound", vBound);
    w.key("sensor").beginObject();
    if (sensorLevel >= 0) {
        static const char *const levels[] = {"low", "normal", "high"};
        w.field("level",
                sensorLevel <= 2 ? levels[sensorLevel] : "?");
        w.field("reading", sensorReading);
    } else {
        w.field("level", "none");
    }
    w.endObject();
    w.key("actuator").beginObject();
    w.field("gating", gating);
    w.field("phantom", phantom);
    w.endObject();
    w.field("fingerprint_cycles", fingerprintCycles);
    w.key("fingerprint").beginObject();
    for (size_t i = 0; i < kNumFpChannels; ++i)
        w.field(kChannelNames[i], fingerprint[i]);
    w.endObject();
    w.endObject();
    out += w.take();
    out += '\n';
}

// ------------------------------------------------------------- EventLog

EventLog::EventLog(size_t capacity) : capacity_(capacity)
{
}

void
EventLog::push(EmergencyEvent ev)
{
    if (events_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(ev));
}

std::string
EventLog::jsonl() const
{
    std::string out;
    for (const EmergencyEvent &ev : events_)
        ev.appendJsonl(out);
    return out;
}

// ---------------------------------------------------- EmergencyTracker

EmergencyTracker::EmergencyTracker(double vLoBound, double vHiBound,
                                   size_t fingerprintWindow,
                                   size_t maxEvents)
    : vLoBound_(vLoBound), vHiBound_(vHiBound),
      window_(fingerprintWindow), log_(maxEvents)
{
    if (vLoBound >= vHiBound)
        fatal("EmergencyTracker: vLoBound %.4f >= vHiBound %.4f",
              vLoBound, vHiBound);
}

void
EmergencyTracker::step(uint64_t cycle, double v, const ActivityRow &counts,
                       const ControlState &ctrl)
{
    // The window includes the crossing cycle itself: record first so
    // the fingerprint covers "the N cycles up to and including entry".
    window_.record(counts);

    const bool isLow = v < vLoBound_;
    const bool isHigh = v > vHiBound_;
    const bool outOfBand = isLow || isHigh;

    if (open_) {
        // A direct low->high (or high->low) flip closes one episode
        // and opens another.
        if (outOfBand && isLow == current_.low) {
            ++current_.durationCycles;
            if (current_.low)
                current_.vExtreme = std::min(current_.vExtreme, v);
            else
                current_.vExtreme = std::max(current_.vExtreme, v);
            return;
        }
        close();
        if (!outOfBand)
            return;
    } else if (!outOfBand) {
        return;
    }

    // Open a new episode at this cycle.
    open_ = true;
    current_ = EmergencyEvent{};
    current_.entryCycle = cycle;
    current_.durationCycles = 1;
    current_.low = isLow;
    current_.vExtreme = v;
    current_.vBound = isLow ? vLoBound_ : vHiBound_;
    current_.sensorLevel = ctrl.sensorLevel;
    current_.sensorReading = ctrl.sensorReading;
    current_.gating = ctrl.gating;
    current_.phantom = ctrl.phantom;
    current_.fingerprint = window_.sums();
    current_.fingerprintCycles =
        std::min<uint64_t>(window_.cyclesSeen(), window_.window());
}

void
EmergencyTracker::finish()
{
    if (open_)
        close();
}

void
EmergencyTracker::close()
{
    log_.push(current_);
    open_ = false;
}

} // namespace vguard::obs
