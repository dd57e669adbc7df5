#include "cpu/core.hpp"

#include <algorithm>
#include <bit>

#include "util/logging.hpp"

namespace vguard::cpu {

using isa::OpClass;
using isa::Opcode;

const CpuConfig &
OoOCore::validated(const CpuConfig &cfg)
{
    // Queue indices are uint16_t with kNone as the no-entry sentinel.
    if (cfg.ruuSize == 0 || cfg.ruuSize >= kNone)
        fatal("OoOCore: RUU size %u out of range", cfg.ruuSize);
    if (cfg.lsqSize == 0 || cfg.lsqSize >= kNone)
        fatal("OoOCore: LSQ size %u out of range", cfg.lsqSize);
    if (cfg.ifqSize == 0 || cfg.ifqSize >= kNone)
        fatal("OoOCore: IFQ size %u out of range", cfg.ifqSize);
    // A zero width never drains the pipeline.
    if (cfg.fetchWidth == 0 || cfg.decodeWidth == 0 ||
        cfg.issueWidth == 0 || cfg.commitWidth == 0)
        fatal("OoOCore: fetch/decode/issue/commit width must be >= 1");
    const uint64_t worstLatency = uint64_t{cfg.dl1.latency} +
                                  cfg.l2.latency + cfg.memLatency + 8;
    if (worstLatency >= kWheelSize)
        fatal("OoOCore: memory latency too large for the event wheel");
    return cfg;
}

OoOCore::OoOCore(const CpuConfig &cfg, isa::Program program)
    : cfg_(validated(cfg)), exec_(std::move(program)), bpred_(cfg_),
      mem_(cfg_), pool_(cfg_), ruu_(cfg_.ruuSize),
      readyBits_((cfg_.ruuSize + 63) / 64),
      edgeNext_(size_t{cfg_.ruuSize} * kMaxSources), lsq_(cfg_.lsqSize),
      ifq_(cfg_.ifqSize), regStatus_(isa::kNumArchRegs, -1),
      wheel_(kWheelSize, kNone)
{
}

uint16_t
OoOCore::ruuIndexAfter(uint16_t idx) const
{
    return static_cast<size_t>(idx) + 1 == ruu_.size() ? 0 : idx + 1;
}

bool
OoOCore::halted() const
{
    return executorDone_ && ruuCount_ == 0 && ifqCount_ == 0;
}

void
OoOCore::scheduleCompletion(uint16_t idx, unsigned latency)
{
    VGUARD_CHECK(latency > 0 && latency < kWheelSize);
    uint16_t &slot = wheel_[(now_ + latency) % kWheelSize];
    ruu_[idx].nextEvent = slot;
    slot = idx;
}

void
OoOCore::makeReady(uint16_t idx)
{
    ruu_[idx].state = State::Ready;
    readyBits_[idx / 64] |= uint64_t{1} << (idx % 64);
}

// vlint: hot
const ActivityVector &
OoOCore::cycle()
{
    av_.clear();
    av_.gates = gates_;
    av_.phantom = phantom_;

    commitStage();
    writebackStage();
    issueStage();
    dispatchStage();
    fetchStage();
    finalizeActivity();

    ++now_;
    ++stats_.cycles;
    return av_;
}

// --------------------------------------------------------------------
// Commit: in-order retire from the RUU head. Stores perform their
// D-cache write here; a gated DL1 therefore stalls commit at the
// store (this is one of the throttling levers of Section 5).
// --------------------------------------------------------------------
void
OoOCore::commitStage()
{
    for (unsigned n = 0; n < cfg_.commitWidth && ruuCount_ > 0; ++n) {
        RuuEntry &e = ruu_[ruuHead_];
        if (e.state != State::Completed)
            break;

        if (e.isStore) {
            if (gates_.dl1) {
                ++stats_.commitGateStalls;
                break;
            }
            if (!pool_.tryIssue(OpClass::Store, now_))
                break; // no free memory port for the store access
            mem_.dataAccess(e.effAddr, true, av_);
            ++av_.memPortsUsed;
            ++stats_.stores;
        }
        if (e.isLoad)
            ++stats_.loads;
        if (e.isBranch)
            ++stats_.branches;

        // Release register mapping if we are still the live producer.
        if (e.si->rd != isa::kNoReg && !isa::isZeroReg(e.si->rd) &&
            regStatus_[e.si->rd] == ruuHead_)
            regStatus_[e.si->rd] = -1;

        if (e.lsqIdx >= 0) {
            VGUARD_CHECK(lsqCount_ > 0 && e.lsqIdx == lsqHead_);
            lsq_[lsqHead_].valid = false;
            lsqHead_ = static_cast<size_t>(lsqHead_) + 1 == lsq_.size()
                           ? 0
                           : lsqHead_ + 1;
            --lsqCount_;
        }

        e.state = State::Empty;
        ruuHead_ = ruuIndexAfter(ruuHead_);
        --ruuCount_;
        ++av_.committed;
        ++stats_.committed;
    }
}

// --------------------------------------------------------------------
// Writeback: drain this cycle's completion events, wake dependents,
// resolve mispredicted branches.
// --------------------------------------------------------------------
void
OoOCore::markCompleted(uint16_t idx)
{
    RuuEntry &e = ruu_[idx];
    VGUARD_CHECK(e.state == State::Issued);
    e.state = State::Completed;
    ++av_.writebacks;
    if (e.si->rd != isa::kNoReg && !isa::isZeroReg(e.si->rd))
        ++av_.regWrites;

    for (uint32_t edge = e.firstConsumer; edge != kNoEdge;
         edge = edgeNext_[edge]) {
        const auto consumer = static_cast<uint16_t>(edge / kMaxSources);
        RuuEntry &c = ruu_[consumer];
        VGUARD_CHECK(c.waitCount > 0);
        if (--c.waitCount == 0 && c.state == State::Waiting)
            makeReady(consumer);
    }
    e.firstConsumer = kNoEdge;

    if (e.mispredicted) {
        VGUARD_CHECK(fetchWaitingBranch_);
        fetchWaitingBranch_ = false;
        fetchResumeAt_ =
            std::max(fetchResumeAt_, now_ + cfg_.branchPenalty);
    }
}

void
OoOCore::writebackStage()
{
    uint16_t &slot = wheel_[now_ % kWheelSize];
    for (uint16_t idx = slot; idx != kNone; idx = ruu_[idx].nextEvent)
        markCompleted(idx);
    slot = kNone;
}

// --------------------------------------------------------------------
// Issue: oldest-first dataflow scheduling onto the functional units.
// --------------------------------------------------------------------
bool
OoOCore::tryIssueLoad(uint16_t idx, RuuEntry &e)
{
    if (gates_.dl1 || !pool_.anyFree(FuGroup::MemPort, now_))
        return false;

    // Conservative memory disambiguation: scan older LSQ entries; an
    // older store with an unresolved address blocks the load, an
    // address match forwards from the store. A blocked load leaves the
    // Ready set and waits on that store, whose issue wakes it: until
    // then every rescan would stop at the same store.
    VGUARD_CHECK(e.lsqIdx >= 0);
    bool forward = false;
    auto scan = static_cast<uint16_t>(e.lsqIdx);
    while (scan != lsqHead_) {
        scan = scan == 0 ? static_cast<uint16_t>(lsq_.size() - 1)
                         : scan - 1;
        const LsqEntry &older = lsq_[scan];
        if (!older.valid || !older.isStore)
            continue;
        if (!older.addrReady) {
            RuuEntry &store = ruu_[older.ruuIdx];
            e.state = State::Blocked;
            readyBits_[idx / 64] &= ~(uint64_t{1} << (idx % 64));
            e.nextBlocked = store.firstBlocked;
            store.firstBlocked = idx;
            return false; // unknown older store address
        }
        if (older.addr == e.effAddr) {
            forward = true;
            break;
        }
    }

    const bool claimed = pool_.tryIssue(OpClass::Load, now_);
    VGUARD_CHECK(claimed);
    ++av_.memPortsUsed;

    unsigned lat;
    if (forward) {
        ++av_.lsqForwards;
        ++stats_.lsqForwards;
        lat = 1;
    } else {
        lat = mem_.dataAccess(e.effAddr, false, av_);
    }
    scheduleCompletion(idx, lat);
    return true;
}

bool
OoOCore::tryIssue(uint16_t idx)
{
    RuuEntry &e = ruu_[idx];
    VGUARD_CHECK(e.state == State::Ready);

    const FuGroup group = fuGroupOf(e.cls);
    const bool isFuOp =
        group == FuGroup::IntAlu || group == FuGroup::IntMultDiv ||
        group == FuGroup::FpAlu || group == FuGroup::FpMultDiv;
    // Branches still execute under FU gating (the control path is
    // not gated, only the execution datapaths), so exempt them.
    if (gates_.fu && isFuOp && e.cls != OpClass::Branch) {
        ++stats_.issueGateStalls;
        return false;
    }

    if (e.isLoad) {
        if (!tryIssueLoad(idx, e))
            return false;
    } else if (e.isStore) {
        // Address generation on a memory port; the cache write
        // happens at commit.
        if (!pool_.tryIssue(OpClass::Store, now_))
            return false;
        ++av_.memPortsUsed;
        VGUARD_CHECK(e.lsqIdx >= 0);
        lsq_[e.lsqIdx].addrReady = true;
        for (uint16_t load = e.firstBlocked; load != kNone;
             load = ruu_[load].nextBlocked)
            makeReady(load);
        e.firstBlocked = kNone;
        scheduleCompletion(idx, 1);
    } else if (e.cls == OpClass::Nop) {
        // NOP/HALT never reach Ready (completed at dispatch).
        panic("issueStage: Nop in ready state");
    } else {
        if (!pool_.tryIssue(e.cls, now_))
            return false;
        scheduleCompletion(idx, pool_.latencyOf(e.cls));
    }

    e.state = State::Issued;
    readyBits_[idx / 64] &= ~(uint64_t{1} << (idx % 64));
    ++stats_.issued;

    uint8_t srcs[kMaxSources];
    av_.regReads += e.si->sources(srcs);

    switch (e.cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:  ++av_.issuedIntAlu; break;
      case OpClass::IntMult: ++av_.issuedIntMult; break;
      case OpClass::IntDiv:  ++av_.issuedIntDiv; break;
      case OpClass::FpAdd:   ++av_.issuedFpAdd; break;
      case OpClass::FpMult:  ++av_.issuedFpMult; break;
      case OpClass::FpDiv:   ++av_.issuedFpDiv; break;
      default: break;
    }
    return true;
}

void
OoOCore::issueStage()
{
    unsigned issued = 0;
    float activitySum = 0.0f;
    const unsigned width = std::min(cfg_.issueWidth, issueLimit_);

    // Walk the Ready bitmap oldest-first: the head's word from the
    // head up, the following words round the ring, then the head's
    // word below the head. This visits exactly the entries a walk of
    // the whole RUU from the head would find Ready, in the same order.
    // Completions land at least one cycle after issue, so the Ready set
    // grows mid-walk in one case only: a store's issue wakes the
    // younger loads that waited on its address. Re-reading the current
    // word above each issued slot (later words are read on arrival)
    // visits them where a walk that kept them Ready would have.
    const size_t words = readyBits_.size();
    const size_t headWord = ruuHead_ / 64;
    const uint64_t fromHead = ~uint64_t{0} << (ruuHead_ % 64);
    for (size_t n = 0; n <= words && issued < width; ++n) {
        const size_t w = (headWord + n) % words;
        const uint64_t span = n == 0       ? fromHead
                              : n == words ? ~fromHead
                                           : ~uint64_t{0};
        uint64_t bits = readyBits_[w] & span;
        while (bits != 0 && issued < width) {
            const int bit = std::countr_zero(bits);
            const auto idx = static_cast<uint16_t>(w * 64 + bit);
            bits &= bits - 1;
            if (!tryIssue(idx))
                continue;
            ++issued;
            activitySum += ruu_[idx].activity;
            bits = readyBits_[w] & span & (~uint64_t{1} << bit);
        }
    }

    if (issued > 0)
        av_.issueActivity = activitySum / static_cast<float>(issued);
}

// --------------------------------------------------------------------
// Dispatch: move fetched instructions into the RUU/LSQ, renaming
// sources against the register status table.
// --------------------------------------------------------------------
void
OoOCore::dispatchStage()
{
    for (unsigned n = 0; n < cfg_.decodeWidth; ++n) {
        if (ifqCount_ == 0)
            break;
        FetchedInst &fi = ifq_[ifqHead_];
        if (fi.readyCycle > now_)
            break; // still in the super-pipelined front end
        if (ruuCount_ == ruu_.size()) {
            ++stats_.dispatchStallWindow;
            break;
        }
        const bool isMem = fi.si->cls() == OpClass::Load ||
                           fi.si->cls() == OpClass::Store;
        if (isMem && lsqCount_ == lsq_.size()) {
            ++stats_.dispatchStallWindow;
            break;
        }

        const uint16_t idx = ruuTail_;
        RuuEntry &e = ruu_[idx];
        VGUARD_CHECK(e.state == State::Empty);
        e.si = fi.si;
        e.pc = fi.pc;
        e.cls = fi.si->cls();
        e.isLoad = e.cls == OpClass::Load;
        e.isStore = e.cls == OpClass::Store;
        e.isBranch = e.cls == OpClass::Branch;
        e.mispredicted = fi.mispredicted;
        e.effAddr = fi.effAddr;
        e.activity = fi.activity;
        e.waitCount = 0;
        e.lsqIdx = -1;
        e.firstConsumer = kNoEdge;
        e.firstBlocked = kNone;

        // Rename: link this entry onto the wake-up list of every
        // producer still in flight, one edge per source operand.
        uint8_t srcs[kMaxSources];
        const unsigned nsrc = e.si->sources(srcs);
        for (unsigned s = 0; s < nsrc; ++s) {
            const int32_t producer = regStatus_[srcs[s]];
            if (producer >= 0 &&
                ruu_[producer].state != State::Completed &&
                ruu_[producer].state != State::Empty) {
                const uint32_t edge = uint32_t{idx} * kMaxSources + s;
                edgeNext_[edge] = ruu_[producer].firstConsumer;
                ruu_[producer].firstConsumer = edge;
                ++e.waitCount;
            }
        }

        if (e.si->rd != isa::kNoReg && !isa::isZeroReg(e.si->rd))
            regStatus_[e.si->rd] = idx;

        if (isMem) {
            LsqEntry &l = lsq_[lsqTail_];
            l.valid = true;
            l.ruuIdx = idx;
            l.isStore = e.isStore;
            l.addr = e.effAddr;
            l.addrReady = false;
            e.lsqIdx = lsqTail_;
            lsqTail_ = static_cast<size_t>(lsqTail_) + 1 == lsq_.size()
                           ? 0
                           : lsqTail_ + 1;
            ++lsqCount_;
        }

        if (e.cls == OpClass::Nop) {
            // NOPs and HALT retire without executing.
            e.state = State::Issued;
            scheduleCompletion(idx, 1);
        } else if (e.waitCount == 0) {
            makeReady(idx);
        } else {
            e.state = State::Waiting;
        }

        ruuTail_ = ruuIndexAfter(ruuTail_);
        ++ruuCount_;
        ifqHead_ = static_cast<size_t>(ifqHead_) + 1 == ifq_.size()
                       ? 0
                       : ifqHead_ + 1;
        --ifqCount_;
        ++av_.dispatched;
        ++stats_.dispatched;
    }
}

// --------------------------------------------------------------------
// Fetch: follow the (always correct) program path, consulting the
// branch predictor to discover mispredictions; on one, fetch stalls
// until resolution + refill penalty. I-cache misses stall fetch for
// the miss latency. A gated IL1 stalls fetch outright.
// --------------------------------------------------------------------
void
OoOCore::fetchStage()
{
    if (executorDone_)
        return;
    if (gates_.il1) {
        ++stats_.fetchStallGate;
        return;
    }
    if (fetchWaitingBranch_) {
        ++stats_.fetchStallBranch;
        return;
    }
    if (now_ < fetchResumeAt_) {
        ++stats_.fetchStallIcache;
        return;
    }

    uint64_t lineAddr = ~0ull;
    for (unsigned n = 0; n < cfg_.fetchWidth; ++n) {
        if (ifqCount_ == ifq_.size())
            break;
        if (exec_.halted()) {
            executorDone_ = true;
            break;
        }

        const uint32_t pc = exec_.pc();
        const uint64_t addr = cfg_.codeBase + 4ull * pc;
        const uint64_t line = addr / cfg_.il1.lineBytes;
        if (n == 0) {
            lineAddr = line;
            const unsigned lat = mem_.ifetch(addr, av_);
            if (lat > cfg_.il1.latency) {
                // Miss: this cycle fetches nothing; retry when filled.
                fetchResumeAt_ = now_ + lat;
                return;
            }
            ++av_.bpredLookups; // next-fetch-address computation
        } else if (line != lineAddr) {
            break; // stop at the line boundary
        }

        const isa::ExecInfo info = exec_.step();
        if (info.si == nullptr) {
            executorDone_ = true;
            break;
        }
        if (info.halted)
            executorDone_ = true;

        FetchedInst fi;
        fi.si = info.si;
        fi.pc = info.pc;
        fi.taken = info.taken;
        fi.effAddr = info.effAddr;
        fi.activity = info.activity;
        fi.readyCycle = now_ + 1 + cfg_.frontEndDepth;

        bool stopFetch = false;
        if (isa::isControl(info.si->op)) {
            ++av_.bpredLookups;
            const Prediction pred = bpred_.predictAndUpdate(
                info.pc, *info.si, info.taken, info.nextPc);
            const bool dirWrong = pred.taken != info.taken;
            const bool targetWrong =
                info.taken && info.si->op == Opcode::RET &&
                (!pred.targetKnown || pred.target != info.nextPc);
            const bool btbWrong =
                info.taken && isa::isCondBranch(info.si->op) &&
                pred.taken && !pred.targetKnown;
            fi.mispredicted = dirWrong || targetWrong || btbWrong;
            if (fi.mispredicted) {
                ++stats_.mispredicts;
                fetchWaitingBranch_ = true;
                stopFetch = true;
            } else if (info.taken) {
                stopFetch = true; // redirect: no fetch past a taken
            }                     // branch in the same cycle
        }

        ifq_[ifqTail_] = fi;
        ifqTail_ = static_cast<size_t>(ifqTail_) + 1 == ifq_.size()
                       ? 0
                       : ifqTail_ + 1;
        ++ifqCount_;
        ++av_.fetched;
        ++stats_.fetched;

        if (info.halted)
            break;
        if (stopFetch)
            break;
    }
}

void
OoOCore::finalizeActivity()
{
    av_.ruuOccupancy = ruuCount_;
    av_.lsqOccupancy = lsqCount_;
    av_.busyIntAlu = pool_.busyCount(FuGroup::IntAlu, now_);
    av_.busyIntMultDiv = pool_.busyCount(FuGroup::IntMultDiv, now_);
    av_.busyFpAlu = pool_.busyCount(FuGroup::FpAlu, now_);
    av_.busyFpMultDiv = pool_.busyCount(FuGroup::FpMultDiv, now_);
}

} // namespace vguard::cpu
