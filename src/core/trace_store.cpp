#include "core/trace_store.hpp"

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "obs/tracing.hpp"
#include "util/logging.hpp"

namespace vguard::core {

namespace {

constexpr char kMagic[8] = {'V', 'G', 'T', 'R', 'S', 'T', '0', '1'};
constexpr uint32_t kVersion = 2;
constexpr size_t kHeaderBytes = 64;
constexpr size_t kActivityEntryBytes = sizeof(obs::ActivityRow);

/** On-disk header; packed by construction (no padding at these
    offsets), asserted below so a compiler surprise fails the build. */
struct FileHeader
{
    char magic[8];
    uint32_t version;
    uint32_t reserved;
    uint64_t keyBytes;
    uint64_t cycles;
    uint64_t committed;
    uint64_t flags;
    uint64_t statsBytes;
    uint64_t payloadHash;
};
static_assert(sizeof(FileHeader) == kHeaderBytes,
              "trace-store header must be exactly 64 bytes");
static_assert(offsetof(FileHeader, payloadHash) == 56,
              "trace-store header layout drifted");

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t
fnv1a(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

size_t
alignUp8(size_t n)
{
    return (n + 7) & ~size_t{7};
}

void
putU8(std::string &out, uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

void
putU64(std::string &out, uint64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof v);
}

void
putF64(std::string &out, double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    putU64(out, bits);
}

void
putStr(std::string &out, const std::string &s)
{
    putU64(out, s.size());
    out.append(s);
}

/**
 * Bounds-checked cursor over the mapped stats blob. Every read
 * validates before advancing; ok() goes false (sticky) on the first
 * short read, and the caller treats that as file corruption.
 */
class BlobReader
{
  public:
    BlobReader(const char *data, size_t size) : p_(data), left_(size) {}

    bool ok() const { return ok_; }
    bool atEnd() const { return left_ == 0; }

    uint8_t
    u8()
    {
        uint8_t v = 0;
        take(&v, sizeof v);
        return v;
    }

    uint64_t
    u64()
    {
        uint64_t v = 0;
        take(&v, sizeof v);
        return v;
    }

    double
    f64()
    {
        const uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    std::string
    str()
    {
        const uint64_t n = u64();
        if (!ok_ || n > left_) {
            ok_ = false;
            return {};
        }
        std::string s(p_, n);
        p_ += n;
        left_ -= n;
        return s;
    }

  private:
    void
    take(void *dst, size_t n)
    {
        if (!ok_ || n > left_) {
            ok_ = false;
            std::memset(dst, 0, n);
            return;
        }
        std::memcpy(dst, p_, n);
        p_ += n;
        left_ -= n;
    }

    const char *p_;
    size_t left_;
    bool ok_ = true;
};

/** mkdir -p: create @p path and any missing parents. */
bool
makeDirs(const std::string &path)
{
    std::string partial;
    size_t i = 0;
    while (i < path.size()) {
        size_t next = path.find('/', i);
        if (next == std::string::npos)
            next = path.size();
        partial.assign(path, 0, next);
        i = next + 1;
        if (partial.empty())
            continue;
        if (mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST)
            return false;
    }
    return true;
}

/**
 * Serialize a stats snapshot to the store's blob format (count, then
 * per entry: name/desc, kind, merge rule, values).
 */
std::string
encodeSnapshot(const obs::Snapshot &snap)
{
    std::string out;
    putU64(out, snap.size());
    for (const obs::SnapshotEntry &e : snap.entries()) {
        putStr(out, e.name);
        putStr(out, e.desc);
        putU8(out, static_cast<uint8_t>(e.kind));
        putU8(out, static_cast<uint8_t>(e.rule));
        putU64(out, e.u);
        putF64(out, e.d);
    }
    return out;
}

/** Rebuild a snapshot from a blob; false on any malformed field. */
bool
decodeSnapshot(const char *data, size_t size, obs::Snapshot &out)
{
    BlobReader r(data, size);
    const uint64_t count = r.u64();
    for (uint64_t i = 0; r.ok() && i < count; ++i) {
        obs::SnapshotEntry e;
        e.name = r.str();
        e.desc = r.str();
        const uint8_t kind = r.u8();
        const uint8_t rule = r.u8();
        if (kind > uint8_t(obs::SnapshotEntry::Kind::Gauge) ||
            rule > uint8_t(obs::MergeRule::Last))
            return false;
        e.kind = static_cast<obs::SnapshotEntry::Kind>(kind);
        e.rule = static_cast<obs::MergeRule>(rule);
        e.u = r.u64();
        e.d = r.f64();
        if (!r.ok())
            return false;
        out.upsertEntry(std::move(e));
    }
    return r.ok() && r.atEnd();
}

} // namespace

TraceStore &
TraceStore::instance()
{
    // Internally synchronized: configuration under m_, counters
    // atomic, file operations independent per key.
    // vlint: allow(thread-static) internally synchronized singleton
    static TraceStore store;
    return store;
}

TraceStore::TraceStore()
    : maxBytes_(0),
      mappedBytes_(std::make_shared<std::atomic<size_t>>(0))
{
    // Read once at magic-static init, before campaign workers exist.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *dir = std::getenv("VGUARD_TRACE_STORE");
    if (!dir || !*dir)
        return;
    size_t mb = 4096;
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char *env = std::getenv("VGUARD_TRACE_STORE_MB")) {
        if (*env && !parseTraceCacheMb(env, mb))
            warn("VGUARD_TRACE_STORE_MB: unrecognized value '%s'; "
                 "using default %zu MB",
                 env, mb);
    }
    configure(dir, mb * 1024 * 1024);
}

bool
TraceStore::enabled() const
{
    std::lock_guard<std::mutex> lock(m_);
    return !root_.empty();
}

void
TraceStore::configure(std::string root, size_t maxBytes)
{
    if (!root.empty() && !makeDirs(root)) {
        warn("trace store: cannot create '%s' (%s); store disabled",
             root.c_str(), std::strerror(errno));
        root.clear();
    }
    std::lock_guard<std::mutex> lock(m_);
    root_ = std::move(root);
    maxBytes_ = maxBytes;
}

std::string
TraceStore::root() const
{
    std::lock_guard<std::mutex> lock(m_);
    return root_;
}

std::string
TraceStore::fileNameForKey(const std::string &key)
{
    const uint64_t h = fnv1a(kFnvOffset, key.data(), key.size());
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.vgt",
                  static_cast<unsigned long long>(h));
    return name;
}

std::optional<CapturedTrace>
TraceStore::load(const std::string &key)
{
    const std::string dir = root();
    if (dir.empty())
        return std::nullopt;
    const std::string path = dir + "/" + fileNameForKey(key);

    const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        obs::TraceInstant("trace_store.miss");
        return std::nullopt;
    }

    // Bump mtime so the eviction sweep sees this file as recently
    // used (cross-process LRU); best-effort, failure is harmless.
    struct timespec now[2];
    now[0].tv_sec = now[1].tv_sec = 0;
    now[0].tv_nsec = now[1].tv_nsec = UTIME_NOW;
    (void)futimens(fd, now);

    const auto reject = [&](const char *why) {
        warn("trace store: rejecting %s (%s); will recapture",
             path.c_str(), why);
        rejects_.fetch_add(1, std::memory_order_relaxed);
        obs::TraceInstant("trace_store.reject");
        return std::nullopt;
    };

    struct stat st;
    if (fstat(fd, &st) != 0 || st.st_size < off_t(kHeaderBytes)) {
        close(fd);
        return reject("short file");
    }
    const size_t size = static_cast<size_t>(st.st_size);

    void *base = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    close(fd); // the mapping keeps the inode alive
    if (base == MAP_FAILED)
        return reject("mmap failed");
    const char *bytes = static_cast<const char *>(base);

    FileHeader hdr;
    std::memcpy(&hdr, bytes, sizeof hdr);
    const auto rejectUnmap = [&](const char *why) {
        munmap(base, size);
        return reject(why);
    };

    if (std::memcmp(hdr.magic, kMagic, sizeof kMagic) != 0)
        return rejectUnmap("bad magic");
    if (hdr.version != kVersion)
        return rejectUnmap("version mismatch");

    // Exact size check before touching any offset derived from the
    // header, so a corrupt count can never index past the mapping.
    // keyBytes and cycles are bounded by the file size before any sum
    // or product, so none of the offsets below can wrap, and the stats
    // length is compared against what is left rather than added.
    if (hdr.keyBytes > size ||
        hdr.cycles > size / (sizeof(double) + kActivityEntryBytes))
        return rejectUnmap("size mismatch");
    const size_t ampsOff = alignUp8(kHeaderBytes + hdr.keyBytes);
    const size_t actOff = ampsOff + hdr.cycles * sizeof(double);
    const size_t statsOff =
        alignUp8(actOff + hdr.cycles * kActivityEntryBytes);
    if (statsOff > size || hdr.statsBytes != size - statsOff)
        return rejectUnmap("size mismatch");

    if (fnv1a(kFnvOffset, bytes + kHeaderBytes, size - kHeaderBytes) !=
        hdr.payloadHash)
        return rejectUnmap("payload hash mismatch");

    // Full key compare rules out FNV filename collisions.
    if (hdr.keyBytes != key.size() ||
        std::memcmp(bytes + kHeaderBytes, key.data(), key.size()) != 0)
        return rejectUnmap("key mismatch");

    CapturedTrace trace;
    if (!decodeSnapshot(bytes + statsOff, hdr.statsBytes,
                      trace.frontEnd))
        return rejectUnmap("malformed stats blob");

    trace.committed = hdr.committed;
    trace.halted = (hdr.flags & 1) != 0;
    trace.ampsView = reinterpret_cast<const double *>(bytes + ampsOff);
    trace.activityView =
        reinterpret_cast<const obs::ActivityRow *>(bytes + actOff);
    trace.viewCycles = hdr.cycles;
    std::shared_ptr<std::atomic<size_t>> mapped = mappedBytes_;
    mapped->fetch_add(size, std::memory_order_relaxed);
    trace.mapping = std::shared_ptr<const void>(
        base, [base, size, mapped](const void *) {
            mapped->fetch_sub(size, std::memory_order_relaxed);
            munmap(base, size);
        });

    hits_.fetch_add(1, std::memory_order_relaxed);
    obs::TraceInstant("trace_store.hit")
        .arg("cycles", hdr.cycles)
        .arg("bytes", uint64_t{size});
    return trace;
}

bool
TraceStore::save(const std::string &key, const CapturedTrace &trace)
{
    if (!enabled())
        return false;
    // A store-loaded view came *from* this store: its file already
    // exists, and its views may alias the very mapping a rewrite would
    // replace. Nothing to persist.
    if (trace.mapping)
        return false;
    std::string finalName;
    if (!writeFile(key, trace, finalName))
        return false;
    writes_.fetch_add(1, std::memory_order_relaxed);
    obs::TraceInstant("trace_store.write")
        .arg("cycles", uint64_t{trace.cycles()});
    evictToBudget(finalName);
    return true;
}

bool
TraceStore::writeFile(const std::string &key, const CapturedTrace &trace,
                      std::string &finalName)
{
    const std::string dir = root();
    if (dir.empty())
        return false;
    finalName = fileNameForKey(key);
    const std::string path = dir + "/" + finalName;

    const std::string stats = encodeSnapshot(trace.frontEnd);

    FileHeader hdr{};
    std::memcpy(hdr.magic, kMagic, sizeof kMagic);
    hdr.version = kVersion;
    hdr.keyBytes = key.size();
    hdr.cycles = trace.cycles();
    hdr.committed = trace.committed;
    hdr.flags = trace.halted ? 1 : 0;
    hdr.statsBytes = stats.size();

    // Assemble the payload (everything after the header) in one
    // buffer: simplest way to hash and write the padded layout.
    const size_t ampsOff = alignUp8(kHeaderBytes + key.size());
    const size_t actOff = ampsOff + trace.cycles() * sizeof(double);
    const size_t statsOff =
        alignUp8(actOff + trace.cycles() * kActivityEntryBytes);
    std::string payload;
    payload.reserve(statsOff - kHeaderBytes + stats.size());
    payload.append(key);
    payload.append(ampsOff - kHeaderBytes - key.size(), '\0');
    payload.append(reinterpret_cast<const char *>(trace.ampsData()),
                   trace.cycles() * sizeof(double));
    payload.append(reinterpret_cast<const char *>(trace.activityData()),
                   trace.cycles() * kActivityEntryBytes);
    payload.append(statsOff - actOff -
                       trace.cycles() * kActivityEntryBytes,
                   '\0');
    payload.append(stats);
    hdr.payloadHash = fnv1a(kFnvOffset, payload.data(), payload.size());

    // Temp name is unique per (process, call): O_EXCL can only
    // collide with a leaked temp from a crashed run of the same pid,
    // which the unlink-on-error below makes vanishingly unlikely.
    char tmpName[96];
    std::snprintf(tmpName, sizeof tmpName, "/.tmp-%s-%ld-%llu",
                  finalName.c_str(), static_cast<long>(getpid()),
                  static_cast<unsigned long long>(
                      tmpSeq_.fetch_add(1, std::memory_order_relaxed)));
    const std::string tmp = dir + tmpName;

    const int fd = open(tmp.c_str(),
                        O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
    if (fd < 0) {
        warn("trace store: cannot create %s (%s)", tmp.c_str(),
             std::strerror(errno));
        return false;
    }
    const auto fail = [&](const char *what) {
        warn("trace store: %s for %s (%s)", what, tmp.c_str(),
             std::strerror(errno));
        close(fd);
        unlink(tmp.c_str());
        return false;
    };
    const auto writeAll = [&](const void *data, size_t n) {
        const char *p = static_cast<const char *>(data);
        while (n > 0) {
            const ssize_t w = write(fd, p, n);
            if (w < 0) {
                if (errno == EINTR)
                    continue;
                return false;
            }
            p += w;
            n -= static_cast<size_t>(w);
        }
        return true;
    };
    if (!writeAll(&hdr, sizeof hdr) ||
        !writeAll(payload.data(), payload.size()))
        return fail("write failed");
    // fsync before rename: otherwise a crash can leave the *renamed*
    // file with zero-filled pages, which load() would reject but only
    // after paying a warn per sweep run.
    if (fsync(fd) != 0)
        return fail("fsync failed");
    if (close(fd) != 0) {
        warn("trace store: close failed for %s (%s)", tmp.c_str(),
             std::strerror(errno));
        unlink(tmp.c_str());
        return false;
    }
    if (rename(tmp.c_str(), path.c_str()) != 0) {
        warn("trace store: rename to %s failed (%s)", path.c_str(),
             std::strerror(errno));
        unlink(tmp.c_str());
        return false;
    }
    return true;
}

void
TraceStore::evictToBudget(const std::string &keepName)
{
    // One sweep at a time; concurrent writers would double-unlink
    // (harmless but noisy) and double-count evictions.
    std::lock_guard<std::mutex> lock(m_);
    if (root_.empty())
        return;

    struct File
    {
        std::string name;
        size_t size;
        struct timespec mtime;
    };
    std::vector<File> files;
    size_t total = 0;

    DIR *d = opendir(root_.c_str());
    if (!d)
        return;
    while (const dirent *ent = readdir(d)) {
        const std::string name = ent->d_name;
        if (name.size() < 5 ||
            name.compare(name.size() - 4, 4, ".vgt") != 0)
            continue;
        struct stat st;
        if (stat((root_ + "/" + name).c_str(), &st) != 0)
            continue;
        files.push_back(
            {name, static_cast<size_t>(st.st_size), st.st_mtim});
        total += static_cast<size_t>(st.st_size);
    }
    closedir(d);
    if (total <= maxBytes_)
        return;

    std::sort(files.begin(), files.end(),
              [](const File &a, const File &b) {
                  if (a.mtime.tv_sec != b.mtime.tv_sec)
                      return a.mtime.tv_sec < b.mtime.tv_sec;
                  if (a.mtime.tv_nsec != b.mtime.tv_nsec)
                      return a.mtime.tv_nsec < b.mtime.tv_nsec;
                  return a.name < b.name; // deterministic tie-break
              });
    for (const File &f : files) {
        if (total <= maxBytes_)
            break;
        if (f.name == keepName)
            continue;
        if (unlink((root_ + "/" + f.name).c_str()) != 0)
            continue;
        total -= f.size;
        evicts_.fetch_add(1, std::memory_order_relaxed);
        obs::TraceInstant("trace_store.evict")
            .arg("bytes", uint64_t{f.size});
    }
}

uint64_t
TraceStore::hits() const
{
    return hits_.load(std::memory_order_relaxed);
}

uint64_t
TraceStore::misses() const
{
    return misses_.load(std::memory_order_relaxed);
}

uint64_t
TraceStore::rejects() const
{
    return rejects_.load(std::memory_order_relaxed);
}

uint64_t
TraceStore::writes() const
{
    return writes_.load(std::memory_order_relaxed);
}

uint64_t
TraceStore::evicts() const
{
    return evicts_.load(std::memory_order_relaxed);
}

size_t
TraceStore::mappedBytes() const
{
    return mappedBytes_->load(std::memory_order_relaxed);
}

} // namespace vguard::core
