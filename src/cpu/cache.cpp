#include "cpu/cache.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <type_traits>
#include <utility>

#include <sys/mman.h>

#include "util/logging.hpp"

namespace vguard::cpu {

namespace {

void
unmapLines(void *map, size_t bytes)
{
    // vlint: allow(raw-io) anonymous memory, not I/O; pairs with takeLines
    munmap(map, bytes);
}

/** A line mapping kept for reuse. */
struct Spare
{
    void *map = nullptr;
    size_t bytes = 0;
};

/// Set once this thread's spares are unmapped at its exit; a cache
/// released after that (by a static owner) is unmapped directly.
thread_local bool sparesGone = false;

/**
 * The line mappings this thread's released caches left behind, kept
 * for the caches it builds next. A recycled mapping is a memset over
 * resident pages, as a recycled heap block was; a fresh one costs a
 * page fault for every page a run touches, which slowed short
 * SPEC-proxy captures by ~15 %. The slots fit one core's three caches.
 * They are unmapped when the thread exits, so a joined pool keeps
 * none (DESIGN.md §5, "Stressmark calibration").
 */
struct SpareLines
{
    std::array<Spare, 3> slots;

    ~SpareLines()
    {
        sparesGone = true;
        for (const Spare &s : slots)
            if (s.map)
                unmapLines(s.map, s.bytes);
    }
};

thread_local SpareLines spareLines;

/**
 * An all-zero mapping of @p bytes: this thread's spare of that size,
 * cleared, else a fresh one; nullptr when mmap fails.
 */
void *
takeLines(size_t bytes)
{
    if (!sparesGone) {
        for (Spare &s : spareLines.slots) {
            if (s.map && s.bytes == bytes) {
                std::memset(s.map, 0, bytes);
                return std::exchange(s.map, nullptr);
            }
        }
    }
    // vlint: allow(raw-io) anonymous memory, not I/O; the lines' own pages
    void *map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return map == MAP_FAILED ? nullptr : map;
}

} // namespace

void
Cache::Release::operator()(Line *lines) const
{
    if (!sparesGone) {
        for (Spare &s : spareLines.slots) {
            if (!s.map) {
                s = {lines, bytes};
                return;
            }
        }
    }
    unmapLines(lines, bytes);
}

Cache::Cache(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), cfg_(cfg)
{
    if (cfg_.lineBytes == 0 || (cfg_.lineBytes & (cfg_.lineBytes - 1)))
        fatal("Cache %s: line size must be a power of two", name_.c_str());
    const uint32_t sets = cfg_.sets();
    if (sets == 0 || (sets & (sets - 1)))
        fatal("Cache %s: set count %u must be a power of two",
              name_.c_str(), sets);
    setShift_ = static_cast<uint32_t>(std::countr_zero(cfg_.lineBytes));
    setMask_ = sets - 1;
    lineCount_ = static_cast<size_t>(sets) * cfg_.ways;

    // The lines live in a private anonymous mapping rather than on the
    // heap, so they leave the process with their thread: a 768 KiB
    // heap block freed on a pool thread stays resident in that thread's
    // glibc arena (DESIGN.md §5, "Stressmark calibration"). Zero bytes
    // are Line{}, so an all-zero mapping is an empty cache.
    static_assert(std::is_trivially_copyable_v<Line>);
    const size_t bytes = lineCount_ * sizeof(Line);
    void *map = takeLines(bytes);
    if (!map)
        fatal("Cache %s: cannot map %zu bytes of lines: %s",
              name_.c_str(), bytes, std::strerror(errno));
    lines_ = std::unique_ptr<Line[], Release>(static_cast<Line *>(map),
                                              Release{bytes});
}

Cache::Result
Cache::access(uint64_t addr, bool write)
{
    ++stats_.accesses;
    ++lruClock_;

    const uint64_t lineAddr = addr >> setShift_;
    const uint32_t set = static_cast<uint32_t>(lineAddr) & setMask_;
    const uint64_t tag = lineAddr >> std::popcount(setMask_);
    Line *const base = &lines_[static_cast<size_t>(set) * cfg_.ways];

    Result res;
    Line *victim = base;
    for (uint32_t w = 0; w < cfg_.ways; ++w) {
        Line &line = base[w];
        if (line.valid && line.tag == tag) {
            line.lruStamp = lruClock_;
            line.dirty |= write;
            res.hit = true;
            return res;
        }
        if (!line.valid) {
            victim = &line;     // prefer an invalid way
        } else if (victim->valid && line.lruStamp < victim->lruStamp) {
            victim = &line;
        }
    }

    ++stats_.misses;
    if (victim->valid && victim->dirty) {
        res.evictedDirty = true;
        // Reconstruct the victim's byte address from its tag/set.
        const uint64_t victimLine =
            (victim->tag << std::popcount(setMask_)) | set;
        res.evictedAddr = victimLine << setShift_;
        ++stats_.writebacks;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->dirty = write;
    victim->lruStamp = lruClock_;
    return res;
}

void
Cache::flush()
{
    std::fill_n(lines_.get(), lineCount_, Line{});
}

MemHierarchy::MemHierarchy(const CpuConfig &cfg)
    : il1_("il1", cfg.il1), dl1_("dl1", cfg.dl1), l2_("l2", cfg.l2),
      memLatency_(cfg.memLatency)
{
}

unsigned
MemHierarchy::l2Fill(uint64_t addr, ActivityVector &av)
{
    ++av.l2Accesses;
    const auto res = l2_.access(addr, false);
    unsigned lat = l2_.latency();
    if (!res.hit) {
        ++av.l2Misses;
        ++memAccesses_;
        lat += memLatency_;
    }
    if (res.evictedDirty)
        ++memAccesses_; // L2 dirty victim drains to memory
    return lat;
}

unsigned
MemHierarchy::ifetch(uint64_t addr, ActivityVector &av)
{
    ++av.icacheAccesses;
    const auto res = il1_.access(addr, false);
    unsigned lat = il1_.latency();
    if (!res.hit) {
        ++av.icacheMisses;
        lat += l2Fill(addr, av);
    }
    // Instruction lines are never dirty; no writeback path.
    return lat;
}

unsigned
MemHierarchy::dataAccess(uint64_t addr, bool write, ActivityVector &av)
{
    ++av.dcacheAccesses;
    const auto res = dl1_.access(addr, write);
    unsigned lat = dl1_.latency();
    if (!res.hit) {
        ++av.dcacheMisses;
        lat += l2Fill(addr, av);
    }
    if (res.evictedDirty) {
        // Buffered writeback: an L2 write access is performed (and
        // counted for power) but adds no latency to this access.
        ++av.l2Accesses;
        const auto wb = l2_.access(res.evictedAddr, true);
        if (!wb.hit) {
            ++av.l2Misses;
            ++memAccesses_;
        }
        if (wb.evictedDirty)
            ++memAccesses_;
    }
    return lat;
}

} // namespace vguard::cpu
