/**
 * @file
 * Persistent, content-addressed store for captured open-loop traces.
 *
 * The in-process TraceCache amortises the ~12x capture-vs-replay cost
 * across one process; every *new* process still pays one full capture
 * per workload before its sweep goes fast. This layer persists each
 * captured trace under the same exact-bytes key the cache uses, so a
 * cold process serves its first impedance sweep from disk instead of
 * simulation — bit-identically, because the file stores the exact
 * doubles, fingerprint stream and spliced front-end stats the capture
 * produced.
 *
 * Addressing: files are named by the FNV-1a 64-bit hash of the cache
 * key (16 hex digits + ".vgt"); the full key bytes are stored inside
 * the file and compared on load, so a hash collision degrades to a
 * recapture, never to serving the wrong trace.
 *
 * Format (all fields little-endian native; the store is a local cache,
 * not an interchange format — a foreign-endian file fails the payload
 * hash and is recaptured):
 *
 *   byte 0   char[8]  magic "VGTRST01"
 *   byte 8   u32      version (2)
 *   byte 12  u32      reserved (0)
 *   byte 16  u64      keyBytes
 *   byte 24  u64      cycles
 *   byte 32  u64      committed
 *   byte 40  u64      flags (bit 0 = halted)
 *   byte 48  u64      statsBytes
 *   byte 56  u64      payloadHash (FNV-1a 64 over bytes [64, EOF))
 *   byte 64  key bytes, padded to 8
 *            amps   (cycles x f64)           — 8-aligned by layout
 *            activity (cycles x 14 x u16), padded to 8
 *            stats blob (front-end Snapshot; see trace_store.cpp)
 *
 * Loads are zero-copy: the whole file is mmapped read-only and the
 * returned CapturedTrace's views alias the mapping (its type-erased
 * `mapping` keep-alive unmaps on last release). Writes are crash-safe:
 * temp file in the same directory, fsync, then atomic rename — readers
 * see either the old file or the complete new one, never a torn write.
 * Any validation failure (bad magic/version/size/hash/key) warns and
 * reports "no entry", so corruption costs one recapture, which then
 * rewrites the file.
 *
 * Eviction: after each write the store sweeps its directory and
 * unlinks oldest-mtime files until total size fits the byte budget
 * (never the file just written). Loads bump the file mtime so the
 * sweep approximates LRU across processes.
 *
 * Environment: VGUARD_TRACE_STORE names the directory (unset or empty
 * disables the store — the default); VGUARD_TRACE_STORE_MB caps the
 * directory size (default 4096, same strict parser as the cache knob).
 *
 * All raw file-descriptor and mmap syscalls in the tree are confined
 * to trace_store.cpp (enforced by the vlint `raw-io` rule).
 */

#ifndef VGUARD_CORE_TRACE_STORE_HPP
#define VGUARD_CORE_TRACE_STORE_HPP

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "core/trace_cache.hpp"

namespace vguard::core {

/** Process-wide persistent trace store (see file comment). */
class TraceStore
{
  public:
    static TraceStore &instance();

    /** True when a store directory is configured. */
    bool enabled() const;

    /**
     * Point the store at @p root with a @p maxBytes budget (tests;
     * normal processes configure from the environment at first use).
     * Empty @p root disables the store. Creates the directory when
     * missing. Does not reset counters.
     */
    void configure(std::string root, size_t maxBytes);

    /** The configured directory ("" when disabled). */
    std::string root() const;

    /**
     * Load the trace stored under @p key, or nullopt when the store is
     * disabled, has no entry, or the entry fails validation (the
     * caller recaptures; a later save overwrites the bad file).
     */
    std::optional<CapturedTrace> load(const std::string &key);

    /**
     * Persist @p trace under @p key. Returns false when the store is
     * disabled, @p trace is itself a store-loaded view (nothing new to
     * write), or any filesystem step fails (warned, never fatal — the
     * run proceeds on the in-memory copy).
     */
    bool save(const std::string &key, const CapturedTrace &trace);

    /** File name (relative to root) a key maps to; exposed for tests. */
    static std::string fileNameForKey(const std::string &key);

    /** Loads served from a valid file. */
    uint64_t hits() const;
    /** Loads that found no file. */
    uint64_t misses() const;
    /** Loads that found a file but failed validation. */
    uint64_t rejects() const;
    /** Traces persisted. */
    uint64_t writes() const;
    /** Files unlinked by the size-budget sweep. */
    uint64_t evicts() const;
    /** Bytes currently mmapped by live loaded traces. */
    size_t mappedBytes() const;

  private:
    TraceStore();

    bool writeFile(const std::string &key, const CapturedTrace &trace,
                   std::string &finalName);
    void evictToBudget(const std::string &keepName);

    mutable std::mutex m_;     ///< guards root_/maxBytes_ and the sweep
    std::string root_;
    size_t maxBytes_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> rejects_{0};
    std::atomic<uint64_t> writes_{0};
    std::atomic<uint64_t> evicts_{0};
    std::atomic<uint64_t> tmpSeq_{0};
    // shared_ptr deleters on loaded traces decrement this after the
    // store itself may have been reconfigured, hence shared ownership.
    std::shared_ptr<std::atomic<size_t>> mappedBytes_;
};

} // namespace vguard::core

#endif // VGUARD_CORE_TRACE_STORE_HPP
