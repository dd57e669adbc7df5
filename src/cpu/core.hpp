/**
 * @file
 * Cycle-level out-of-order core (SimpleScalar sim-outorder flavour,
 * configured per the paper's Table 1).
 *
 * Pipeline: fetch (I-cache + combined branch predictor + BTB/RAS, with
 * super-pipelined front-end depth) → dispatch into a Register Update
 * Unit (RUU) and load/store queue → dataflow issue to the functional
 * units → writeback/wakeup → in-order commit. Mispredicted branches
 * stall fetch until resolution plus a 10-cycle refill penalty (the
 * wrong path is not executed — the same approximation as the paper's
 * Wattch/SimpleScalar infrastructure).
 *
 * Issue is event-driven: a bitmap over the RUU marks the Ready
 * entries, and each cycle walks its set bits oldest-first from the
 * RUU head, so a cycle costs in proportion to its Ready entries, not
 * to the window size. A load blocked behind an older store whose
 * address is unknown leaves the Ready set and waits on that store;
 * the store's issue wakes it, in time for the same walk to visit it.
 * Wake-up lists, the blocked-load lists and the completion wheel are
 * intrusive lists in storage sized once from the CpuConfig, so
 * cycle() allocates nothing.
 *
 * Quiet cycles repeat. A cycle that fetches, dispatches, issues, writes
 * back and commits nothing, and touches no cache, port or register,
 * would be repeated unchanged until a completion falls due, a unit
 * frees, an I-fetch returns, the front end delivers an instruction or
 * an actuator command changes. Until the first of those, cycle() adds
 * the quiet cycle's stall counts and returns its activity again without
 * running the stages (DESIGN.md §4 item 8).
 *
 * The core exposes the two hooks the dI/dt work needs:
 *  - cycle() returns a per-cycle ActivityVector for the power model;
 *  - setGates()/setPhantom() apply the actuator commands of Section 5
 *    (clock-gating stalls issue/access of the gated group; phantom
 *    firing only affects the power model).
 */

#ifndef VGUARD_CPU_CORE_HPP
#define VGUARD_CPU_CORE_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cpu/activity.hpp"
#include "cpu/branch_pred.hpp"
#include "cpu/cache.hpp"
#include "cpu/config.hpp"
#include "cpu/func_units.hpp"
#include "isa/executor.hpp"

namespace vguard::obs {
class Snapshot;  // emitted in core/stat_bindings.cpp (core sits above cpu)
}

namespace vguard::cpu {

/** Aggregate performance statistics. */
struct CoreStats
{
    uint64_t cycles = 0;
    uint64_t fetched = 0;
    uint64_t dispatched = 0;
    uint64_t issued = 0;
    uint64_t committed = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    uint64_t mispredicts = 0;
    uint64_t lsqForwards = 0;

    uint64_t fetchStallBranch = 0;   ///< cycles waiting on mispredict
    uint64_t fetchStallIcache = 0;   ///< cycles waiting on I-miss
    uint64_t fetchStallGate = 0;     ///< cycles fetch gated (IL1)
    uint64_t dispatchStallWindow = 0;
    uint64_t issueGateStalls = 0;    ///< ready ops blocked by FU gating
    uint64_t commitGateStalls = 0;   ///< commit blocked by DL1 gating

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committed) / cycles : 0.0;
    }
};

/** The out-of-order core. */
class OoOCore
{
  public:
    OoOCore(const CpuConfig &cfg, isa::Program program);

    /** Advance one cycle; returns this cycle's activity. */
    const ActivityVector &cycle();

    /** Apply actuator clock gating from the next cycle on. */
    void setGates(const GateState &g) { command(gates_, g); }

    /** Apply actuator phantom firing from the next cycle on. */
    void setPhantom(const PhantomState &p) { command(phantom_, p); }

    /**
     * Cap instructions issued per cycle (multi-level throttle for
     * proportional controllers; see core/pid_controller.hpp). Values
     * at or above issueWidth disable the cap.
     */
    void setIssueLimit(unsigned limit) { command(issueLimit_, limit); }
    unsigned issueLimit() const { return issueLimit_; }

    GateState gates() const { return gates_; }

    /** Program finished and the machine has drained. */
    bool halted() const;

    const CoreStats &stats() const { return stats_; }
    const BpredStats &bpredStats() const { return bpred_.stats(); }
    const MemHierarchy &mem() const { return mem_; }
    const CpuConfig &config() const { return cfg_; }
    uint64_t now() const { return now_; }

    /**
     * Append the core's counters to @p out under `<prefix>.` groups
     * (fetch/dispatch/issue/commit/mem/bpred/icache/dcache/l2) — the
     * gem5 pattern: counters stay plain members on the hot path and
     * are read only at run boundaries.
     */
    void appendStats(obs::Snapshot &out,
                     const std::string &prefix) const;

  private:
    /** StaticInst::sources() yields at most this many operands. */
    static constexpr unsigned kMaxSources = 3;
    /** No RUU entry / LSQ slot (queue sizes stay below it). */
    static constexpr uint16_t kNone = 0xffff;
    /** End of a wake-up list. */
    static constexpr uint32_t kNoEdge = ~0u;

    enum class State : uint8_t {
        Empty,
        Waiting,    ///< operands outstanding
        Ready,      ///< may issue
        Blocked,    ///< load waiting on an older store's address
        Issued,     ///< executing
        Completed,  ///< result available, awaiting commit
    };

    struct RuuEntry
    {
        const isa::StaticInst *si = nullptr;
        uint32_t pc = 0;
        isa::OpClass cls = isa::OpClass::Nop;
        State state = State::Empty;
        uint8_t waitCount = 0;
        bool isLoad = false;
        bool isStore = false;
        bool isBranch = false;
        bool mispredicted = false;
        uint64_t effAddr = 0;
        float activity = 0.0f;
        int32_t lsqIdx = -1;
        /** Head of this producer's wake-up list (an edge id). */
        uint32_t firstConsumer = kNoEdge;
        /** Next entry completing in the same wheel slot. */
        uint16_t nextEvent = kNone;
        /** Head of the list of loads waiting on this store's address. */
        uint16_t firstBlocked = kNone;
        /** Next load waiting on the same store. */
        uint16_t nextBlocked = kNone;
    };

    struct LsqEntry
    {
        uint16_t ruuIdx = 0;
        bool valid = false;
        bool isStore = false;
        bool addrReady = false;  ///< address generated (store issued)
        uint64_t addr = 0;
    };

    struct FetchedInst
    {
        const isa::StaticInst *si = nullptr;
        uint32_t pc = 0;
        bool taken = false;
        bool mispredicted = false;
        uint64_t effAddr = 0;
        float activity = 0.0f;
        uint64_t readyCycle = 0;  ///< dispatchable from this cycle
    };

    // Pipeline stages, called in reverse order each cycle.
    void commitStage();
    void writebackStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();
    void finalizeActivity();

    /** First cycle after now_ at which a quiet cycle can differ. */
    uint64_t quietHorizon() const;

    /**
     * Set an actuator input to @p value. Controllers command every
     * cycle, mostly the value in force, so only a change ends a quiet
     * run.
     */
    template <typename T>
    void
    command(T &input, const T &value)
    {
        if (value != input) {
            input = value;
            quietUntil_ = 0;
        }
    }

    bool tryIssue(uint16_t idx);
    bool tryIssueLoad(uint16_t idx, RuuEntry &e);
    void scheduleCompletion(uint16_t idx, unsigned latency);
    void markCompleted(uint16_t idx);
    void makeReady(uint16_t idx);

    uint16_t ruuIndexAfter(uint16_t idx) const;

    /** @p cfg, or fatal() before any storage is sized from it. */
    static const CpuConfig &validated(const CpuConfig &cfg);

    CpuConfig cfg_;
    isa::Executor exec_;
    BranchPredictor bpred_;
    MemHierarchy mem_;
    FuncUnitPool pool_;

    // RUU circular buffer.
    std::vector<RuuEntry> ruu_;
    uint16_t ruuHead_ = 0;
    uint16_t ruuTail_ = 0;
    uint16_t ruuCount_ = 0;

    /** One bit per RUU slot, set while the entry is Ready. */
    std::vector<uint64_t> readyBits_;

    /**
     * Wake-up edges: edge consumer * kMaxSources + s links the
     * consumer's s-th source operand onto its producer's list, and
     * edgeNext_[edge] is the next edge on that list.
     */
    std::vector<uint32_t> edgeNext_;

    // LSQ circular buffer.
    std::vector<LsqEntry> lsq_;
    uint16_t lsqHead_ = 0;
    uint16_t lsqTail_ = 0;
    uint16_t lsqCount_ = 0;

    // Fetch queue (time-tagged for front-end depth).
    std::vector<FetchedInst> ifq_;
    uint16_t ifqHead_ = 0;
    uint16_t ifqTail_ = 0;
    uint16_t ifqCount_ = 0;

    // Register status: latest in-flight producer per unified arch reg.
    std::vector<int32_t> regStatus_;

    // Completion event wheel: per slot, the first RUU entry completing
    // then (the rest chain through RuuEntry::nextEvent).
    static constexpr unsigned kWheelSize = 2048;
    std::vector<uint16_t> wheel_;

    uint64_t now_ = 0;
    unsigned issueLimit_ = ~0u;     ///< per-cycle issue cap (throttle)
    uint64_t fetchResumeAt_ = 0;    ///< icache-miss / refill gate
    bool fetchWaitingBranch_ = false;
    bool executorDone_ = false;

    GateState gates_;
    PhantomState phantom_;
    ActivityVector av_;
    CoreStats stats_;

    /** The counters a quiet cycle can move besides `cycles`. */
    static constexpr std::array<uint64_t CoreStats::*, 6> kStallCounters{
        &CoreStats::fetchStallBranch,    &CoreStats::fetchStallIcache,
        &CoreStats::fetchStallGate,      &CoreStats::dispatchStallWindow,
        &CoreStats::issueGateStalls,     &CoreStats::commitGateStalls};

    /**
     * While now_ < quietUntil_ and no completion is due, av_ holds a
     * quiet cycle that repeats, and quietStalls_ what it added to each
     * of kStallCounters. Zero when the last full cycle was not quiet.
     */
    uint64_t quietUntil_ = 0;
    std::array<uint64_t, kStallCounters.size()> quietStalls_{};
};

} // namespace vguard::cpu

#endif // VGUARD_CPU_CORE_HPP
