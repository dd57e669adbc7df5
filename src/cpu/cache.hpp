/**
 * @file
 * Set-associative caches and the three-level memory hierarchy of
 * Table 1 (64 KB 2-way L1 I/D, 2 MB 4-way 16-cycle unified L2,
 * 300-cycle main memory).
 *
 * Caches are write-back/write-allocate with true-LRU replacement.
 * Latencies chain on misses; dirty-victim writebacks are performed (and
 * counted, so the power model sees them) but add no latency — the usual
 * buffered-writeback simplification, also made by SimpleScalar.
 */

#ifndef VGUARD_CPU_CACHE_HPP
#define VGUARD_CPU_CACHE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "cpu/activity.hpp"
#include "cpu/config.hpp"

namespace vguard::cpu {

/** Statistics for one cache level. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;

    double
    missRate() const
    {
        return accesses ? static_cast<double>(misses) / accesses : 0.0;
    }
};

/**
 * One set-associative write-back cache level. Its lines live in an
 * anonymous mapping of their own (zero bytes are invalid lines). A
 * destroyed cache leaves its mapping to the next cache its thread
 * builds, and the mapping is unmapped when that thread exits; a heap
 * block would stay in the thread's allocator arena. Movable, not
 * copyable.
 */
class Cache
{
  public:
    Cache(std::string name, const CacheConfig &cfg);

    /** Result of one lookup. */
    struct Result
    {
        bool hit = false;
        bool evictedDirty = false;
        uint64_t evictedAddr = 0;
    };

    /**
     * Look up @p addr; on a miss the line is allocated, possibly
     * evicting a victim (reported so the hierarchy can write it back).
     */
    Result access(uint64_t addr, bool write);

    /** Invalidate everything (keeps statistics). */
    void flush();

    unsigned latency() const { return cfg_.latency; }
    const CacheStats &stats() const { return stats_; }
    const std::string &name() const { return name_; }
    uint32_t sets() const { return cfg_.sets(); }
    uint32_t ways() const { return cfg_.ways; }

  private:
    /** All-zero bytes are Line{}, which the mapping relies on. */
    struct Line
    {
        uint64_t tag = 0;
        uint64_t lruStamp = 0;
        bool valid = false;
        bool dirty = false;
    };

    /**
     * Hands the lines' mapping of @c bytes bytes to the releasing
     * thread's spares for its next cache, or unmaps it.
     */
    struct Release
    {
        size_t bytes;
        void operator()(Line *lines) const;
    };

    std::string name_;
    CacheConfig cfg_;
    uint32_t setShift_;    ///< log2(lineBytes)
    uint32_t setMask_;     ///< sets - 1
    size_t lineCount_;     ///< sets * ways
    /// sets * ways lines, way-major within a set
    std::unique_ptr<Line[], Release> lines_;
    uint64_t lruClock_ = 0;
    CacheStats stats_;
};

/**
 * The full hierarchy: separate L1 I/D in front of a unified L2 in
 * front of fixed-latency memory. Access methods return total latency
 * and record per-structure activity into the given ActivityVector.
 */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const CpuConfig &cfg);

    /** Instruction fetch of the line containing @p addr. */
    unsigned ifetch(uint64_t addr, ActivityVector &av);

    /** Data read/write at @p addr. */
    unsigned dataAccess(uint64_t addr, bool write, ActivityVector &av);

    const Cache &il1() const { return il1_; }
    const Cache &dl1() const { return dl1_; }
    const Cache &l2() const { return l2_; }
    uint64_t memAccesses() const { return memAccesses_; }

  private:
    unsigned l2Fill(uint64_t addr, ActivityVector &av);

    Cache il1_;
    Cache dl1_;
    Cache l2_;
    unsigned memLatency_;
    uint64_t memAccesses_ = 0;
};

} // namespace vguard::cpu

#endif // VGUARD_CPU_CACHE_HPP
