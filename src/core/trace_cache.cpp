#include "core/trace_cache.hpp"

#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#include "core/trace_store.hpp"
#include "obs/tracing.hpp"
#include "util/logging.hpp"

namespace vguard::core {

namespace {

/**
 * What one spliced front-end stats entry costs besides its strings. A
 * constant, not sizeof(obs::SnapshotEntry): a trace's byte count is a
 * canonical-trace arg (tests/golden/mini_trace.jsonl), so it must not
 * move with the record's layout or the standard library's string size.
 */
constexpr size_t kStatsEntryBytes = 104;

// The key is an in-process map key only (never persisted), so native
// endianness/width via memcpy is fine; what matters is that distinct
// configurations produce distinct byte strings. Fields are appended
// one by one — never whole structs, whose padding bytes are
// indeterminate.
void
putBytes(std::string &k, const void *p, size_t n)
{
    k.append(static_cast<const char *>(p), n);
}

void
putU64(std::string &k, uint64_t v)
{
    putBytes(k, &v, sizeof v);
}

void
putI64(std::string &k, int64_t v)
{
    putBytes(k, &v, sizeof v);
}

void
putF64(std::string &k, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(k, bits);
}

void
putCache(std::string &k, const cpu::CacheConfig &c)
{
    putU64(k, c.sizeBytes);
    putU64(k, c.ways);
    putU64(k, c.lineBytes);
    putU64(k, c.latency);
}

size_t
envSizeMb(const char *name, size_t fallbackMb)
{
    // Read once during the cache singleton's magic-static init,
    // before campaign workers exist; nothing mutates the environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv(name);
    if (!env || !*env)
        return fallbackMb;
    size_t mb = fallbackMb;
    if (!parseTraceCacheMb(env, mb))
        warn("%s: unrecognized value '%s'; using default %zu MB", name,
             env, fallbackMb);
    return mb;
}

bool
envEnabled(const char *name)
{
    // Same single-shot init-time read as envSizeMb above.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *env = std::getenv(name);
    if (!env)
        return true;
    bool on = true;
    if (!parseTraceCacheEnabled(env, on))
        warn("%s: unrecognized value '%s'; cache stays enabled", name,
             env);
    return on;
}

} // namespace

bool
parseUnsignedDecimal(const std::string &text, size_t maxDigits,
                     uint64_t &value)
{
    // 19 digits is the most that cannot overflow uint64_t.
    VGUARD_CHECK(maxDigits <= 19);
    if (text.empty() || text.size() > maxDigits)
        return false;
    uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    value = v;
    return true;
}

bool
parseTraceCacheMb(const std::string &text, size_t &mb)
{
    // Seven digits (~10 TB) bound the budget so the MB→byte conversion
    // can never overflow.
    uint64_t v = 0;
    if (!parseUnsignedDecimal(text, 7, v))
        return false;
    mb = static_cast<size_t>(v);
    return true;
}

bool
parseTraceCacheEnabled(const std::string &text, bool &on)
{
    if (text == "1" || text == "on" || text == "true") {
        on = true;
        return true;
    }
    if (text == "0" || text == "off" || text == "false") {
        on = false;
        return true;
    }
    return false;
}

size_t
CapturedTrace::bytes() const
{
    // A store-loaded view holds no heap waveform, but its mapped pages
    // are just as resident — charge them to the budget identically so
    // VGUARD_TRACE_CACHE_MB means the same thing warm or cold.
    size_t b = cycles() * sizeof(double);
    b += cycles() * sizeof(obs::ActivityRow);
    for (const auto &e : frontEnd.entries())
        b += kStatsEntryBytes + e.name.size() + e.desc.size();
    return b;
}

std::string
traceKey(const isa::Program &program, const cpu::CpuConfig &cpu,
         const power::PowerConfig &power, uint64_t maxCycles,
         uint64_t maxInsts)
{
    std::string k = "vguard-trace-v1:";

    // Program: every instruction field-wise.
    putU64(k, program.size());
    for (uint32_t i = 0; i < program.size(); ++i) {
        const isa::StaticInst &si = program.at(i);
        putU64(k, static_cast<uint64_t>(si.op));
        putU64(k, si.rd);
        putU64(k, si.rs1);
        putU64(k, si.rs2);
        putI64(k, si.imm);
        putI64(k, si.target);
    }

    // CpuConfig, declaration order.
    putF64(k, cpu.clockHz);
    putU64(k, cpu.fetchWidth);
    putU64(k, cpu.decodeWidth);
    putU64(k, cpu.issueWidth);
    putU64(k, cpu.commitWidth);
    putU64(k, cpu.ruuSize);
    putU64(k, cpu.lsqSize);
    putU64(k, cpu.ifqSize);
    putU64(k, cpu.frontEndDepth);
    putU64(k, cpu.branchPenalty);
    putU64(k, cpu.numIntAlu);
    putU64(k, cpu.numIntMultDiv);
    putU64(k, cpu.numFpAlu);
    putU64(k, cpu.numFpMultDiv);
    putU64(k, cpu.numMemPorts);
    putU64(k, cpu.intAluLat);
    putU64(k, cpu.intMultLat);
    putU64(k, cpu.intMultRepeat);
    putU64(k, cpu.intDivLat);
    putU64(k, cpu.intDivRepeat);
    putU64(k, cpu.fpAddLat);
    putU64(k, cpu.fpAddRepeat);
    putU64(k, cpu.fpMultLat);
    putU64(k, cpu.fpMultRepeat);
    putU64(k, cpu.fpDivLat);
    putU64(k, cpu.fpDivRepeat);
    putCache(k, cpu.il1);
    putCache(k, cpu.dl1);
    putCache(k, cpu.l2);
    putU64(k, cpu.memLatency);
    putU64(k, cpu.bimodalEntries);
    putU64(k, cpu.gshareEntries);
    putU64(k, cpu.chooserEntries);
    putU64(k, cpu.historyBits);
    putU64(k, cpu.btbEntries);
    putU64(k, cpu.rasEntries);
    putU64(k, cpu.codeBase);

    // PowerConfig, declaration order.
    for (double p : power.pMax)
        putF64(k, p);
    putF64(k, power.idleFrac);
    putF64(k, power.idleFracL2);
    putF64(k, power.gatedFrac);
    putF64(k, power.clockFixedFrac);
    putF64(k, power.vdd);
    putF64(k, power.sBase);
    putF64(k, power.sRange);

    // Run limits (they shape the captured termination condition and
    // the front-end stats, so runs with different limits never share).
    putU64(k, maxCycles);
    putU64(k, maxInsts);
    return k;
}

obs::Snapshot
frontEndSubset(const obs::Snapshot &stats)
{
    obs::Snapshot out;
    for (const auto &e : stats.entries()) {
        if (e.name.rfind("cpu.", 0) == 0 ||
            e.name.rfind("power.", 0) == 0)
            out.upsertEntry(e);
    }
    return out;
}

TraceCache &
TraceCache::instance()
{
    // The cache singleton is internally synchronized: map_ is guarded
    // by m_ and per-entry once_flags serialize capture (see
    // fetchOrCapture); magic-static init is itself thread-safe.
    // vlint: allow(thread-static) internally synchronized singleton
    static TraceCache cache;
    return cache;
}

TraceCache::TraceCache()
    : maxBytes_(envSizeMb("VGUARD_TRACE_CACHE_MB", 1024) * 1024 * 1024),
      enabled_(envEnabled("VGUARD_TRACE_CACHE"))
{
}

const CapturedTrace &
TraceCache::fetchOrCapture(const std::string &key, CapturedTrace &own,
                           const CaptureFn &capture)
{
    if (!enabled()) {
        own = capture();
        return own;
    }
    Entry *e = nullptr;
    bool retainedAtLookup = false;
    {
        std::lock_guard<std::mutex> lock(m_);
        auto &slot = map_[key];
        if (!slot)
            slot = std::make_unique<Entry>();
        e = slot.get();
        // Read under m_ as find() does: once set, the trace is final
        // and call_once has no capture left to wait for.
        retainedAtLookup = e->retained;
    }
    bool first = false;    // this call ran the key's once_flag
    bool captured = false; // this call ran @p capture
    const auto runCapture = [&] {
        captured = true;
        captures_.fetch_add(1, std::memory_order_relaxed);
        // Detached: a capture fires on whichever worker gets there
        // first, so it is a canonical root, not a child of that
        // worker's run span.
        obs::TraceSpan span("trace_cache.capture", obs::TraceClass::Det,
                            true);
        CapturedTrace t = capture();
        span.arg("cycles", uint64_t{t.amps.size()})
            .arg("bytes", uint64_t{t.bytes()});
        return t;
    };
    // A fetch that may wait in call_once, on its own capture or on
    // another worker's, runs inside a Wall span so the wait shows up
    // by name; hits on retained entries stay span-free.
    std::optional<obs::TraceSpan> fetch;
    if (!retainedAtLookup)
        fetch.emplace("trace_cache.fetch", obs::TraceClass::Wall);
    // The expensive capture runs outside the map mutex: concurrent
    // first calls on *this* key serialize on the once_flag; other keys
    // capture in parallel (referenceThresholds() pattern).
    std::call_once(e->once, [&] {
        first = true;
        // A persistent-store load replaces the whole capture and, once
        // retained, counts as a plain hit — exactly the cold-process
        // acceptance shape (store hits == packages, captures == 0).
        if (std::optional<CapturedTrace> stored =
                TraceStore::instance().load(key)) {
            e->trace = std::move(*stored);
        } else {
            e->trace = runCapture();
            TraceStore::instance().save(key, e->trace);
        }
        // Over budget the trace goes to this caller alone; the (tiny)
        // entry stays, so the key is never loaded or saved twice.
        if (!retain(e))
            own = std::exchange(e->trace, CapturedTrace{});
    });
    if (fetch) {
        fetch->arg("captured", uint64_t{captured});
        fetch.reset();
    }
    // e->retained/e->trace are written only inside call_once, which
    // synchronizes-with every return from call_once on this flag.
    if (!first && !e->retained) {
        // Another call's trace was dropped by the budget.
        obs::TraceInstant("trace_cache.miss");
        own = runCapture();
    }
    const bool hit = e->retained && !captured;
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
    if (hit)
        obs::TraceInstant("trace_cache.hit");
    return e->retained ? e->trace : own;
}

const CapturedTrace *
TraceCache::find(const std::string &key) const
{
    if (!enabled())
        return nullptr;
    // retain() sets `retained` under m_ after the trace is final, so
    // reading it under m_ publishes the whole trace without touching
    // the once_flag (which cannot be queried).
    std::lock_guard<std::mutex> lock(m_);
    const auto it = map_.find(key);
    if (it == map_.end() || !it->second->retained)
        return nullptr;
    return &it->second->trace;
}

bool
TraceCache::retain(Entry *e)
{
    const size_t sz = e->trace.bytes();
    size_t resident;
    bool kept;
    {
        std::lock_guard<std::mutex> lock(m_);
        kept = bytes_ + sz <= maxBytes_;
        if (kept) {
            bytes_ += sz;
            ++retained_;
            e->retained = true;
        }
        resident = bytes_;
    }
    if (!kept) {
        evicts_.fetch_add(1, std::memory_order_relaxed);
        obs::TraceInstant("trace_cache.evict").arg("bytes", uint64_t{sz});
    }
    obs::traceCounter("trace_cache.bytes",
                      static_cast<double>(resident));
    return kept;
}

bool
TraceCache::enabled() const
{
    return enabled_.load(std::memory_order_relaxed);
}

void
TraceCache::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(m_);
    map_.clear();
    bytes_ = 0;
    retained_ = 0;
}

uint64_t
TraceCache::captures() const
{
    return captures_.load(std::memory_order_relaxed);
}

uint64_t
TraceCache::hits() const
{
    return hits_.load(std::memory_order_relaxed);
}

uint64_t
TraceCache::misses() const
{
    return misses_.load(std::memory_order_relaxed);
}

uint64_t
TraceCache::evicts() const
{
    return evicts_.load(std::memory_order_relaxed);
}

size_t
TraceCache::entries() const
{
    std::lock_guard<std::mutex> lock(m_);
    return retained_;
}

size_t
TraceCache::bytes() const
{
    std::lock_guard<std::mutex> lock(m_);
    return bytes_;
}

} // namespace vguard::core
