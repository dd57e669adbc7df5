/**
 * @file
 * Tests for the persistent trace store (core/trace_store): on-disk
 * round trips must be bit-identical through the zero-copy mmap view
 * (waveform bytes, fingerprints, spliced front-end stats, and the
 * replay results built from them), every corruption mode — truncation,
 * payload flips, version/magic mismatch, size fields crafted to wrap
 * — must warn and degrade to a recapture rather than serve bad data or
 * read past the mapping, concurrent writer processes must never
 * produce a torn file (tmp + atomic rename), the size
 * budget must evict oldest-mtime files with load() bumping recency,
 * and save() must refuse to rewrite a trace that is itself a store
 * view.
 *
 * Labeled `campaign` so the suite runs under TSan with the rest of the
 * trace-cache/campaign concurrency tests.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "core/trace_cache.hpp"
#include "core/trace_store.hpp"
#include "core/voltage_sim.hpp"
#include "workloads/spec_proxy.hpp"

namespace {

namespace fs = std::filesystem;
using namespace vguard;
using namespace vguard::core;

/** Fresh per-test store directory under the system temp root. */
fs::path
freshStoreDir(const char *tag)
{
    // Force the reference-calibration magic statics (power-virus
    // trace included) to initialise while the store is still
    // unconfigured: ctest runs each TEST in its own process, and a
    // calibration fired mid-test would seed the directory these tests
    // count files and bytes in.
    referenceTarget();
    const fs::path dir = fs::temp_directory_path() /
                         (std::string("vguard-store-test-") + tag + "-" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Capture a small open-loop trace and its cache key. */
CapturedTrace
captureTrace(uint64_t maxCycles, std::string &key)
{
    RunSpec rs;
    rs.controllerEnabled = false;
    rs.maxCycles = maxCycles;
    const Machine m = referenceMachine();
    const isa::Program prog = workloads::buildSpecProxy("gzip");
    key = traceKey(prog, m.cpu, m.power, rs.maxCycles, rs.maxInsts);

    CapturedTrace trace;
    VoltageSim sim(makeSimConfig(rs), prog);
    sim.run(rs.maxCycles, rs.maxInsts, &trace);
    return trace;
}

/** The two traces must be indistinguishable through the read API. */
void
expectSameTrace(const CapturedTrace &a, const CapturedTrace &b)
{
    ASSERT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.halted, b.halted);
    EXPECT_EQ(0, std::memcmp(a.ampsData(), b.ampsData(),
                             a.cycles() * sizeof(double)));
    EXPECT_EQ(0, std::memcmp(a.activityData(), b.activityData(),
                             a.cycles() * sizeof(*a.activityData())));
    EXPECT_EQ(a.frontEnd.json(), b.frontEnd.json());
}

// ------------------------------------------------------------ naming

TEST(TraceStoreFileName, SixteenHexDigitsDeterministic)
{
    const std::string a = TraceStore::fileNameForKey("key-a");
    const std::string b = TraceStore::fileNameForKey("key-b");
    EXPECT_EQ(a, TraceStore::fileNameForKey("key-a"));
    EXPECT_NE(a, b);
    ASSERT_EQ(a.size(), 16u + 4u);
    EXPECT_EQ(a.substr(16), ".vgt");
    for (size_t i = 0; i < 16; ++i)
        EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(a[i])))
            << "position " << i << " in " << a;
}

// --------------------------------------------------------- round trip

TEST(TraceStoreRoundTrip, BitIdenticalThroughMmapView)
{
    TraceStore &ts = TraceStore::instance();
    const fs::path dir = freshStoreDir("roundtrip");
    ts.configure(dir.string(), 1u << 30);

    std::string key;
    const CapturedTrace trace = captureTrace(2111, key);
    ASSERT_GT(trace.cycles(), 0u);
    ASSERT_FALSE(trace.mapping);

    const uint64_t missBefore = ts.misses();
    EXPECT_FALSE(ts.load(key).has_value()) << "no file yet";
    EXPECT_EQ(ts.misses() - missBefore, 1u);

    const uint64_t writeBefore = ts.writes();
    ASSERT_TRUE(ts.save(key, trace));
    EXPECT_EQ(ts.writes() - writeBefore, 1u);
    ASSERT_TRUE(fs::exists(dir / TraceStore::fileNameForKey(key)));

    const uint64_t hitBefore = ts.hits();
    std::optional<CapturedTrace> loaded = ts.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(ts.hits() - hitBefore, 1u);
    EXPECT_TRUE(loaded->mapping) << "loads must be zero-copy views";
    EXPECT_TRUE(loaded->amps.empty());
    EXPECT_GT(ts.mappedBytes(), 0u);
    expectSameTrace(trace, *loaded);

    // A store view has nothing new to persist.
    EXPECT_FALSE(ts.save(key, *loaded));

    // Replays driven by the owned capture and by the mmap view must
    // produce byte-identical results (the acceptance bit-identity).
    RunSpec rs;
    rs.controllerEnabled = false;
    rs.maxCycles = 2111;
    rs.impedanceScale = 3.0;
    const VoltageSimConfig cfg = makeSimConfig(rs);
    const isa::Program prog = workloads::buildSpecProxy("gzip");
    VoltageSim simA(cfg, prog);
    const VoltageSimResult a = simA.runReplay(trace);
    VoltageSim simB(cfg, prog);
    const VoltageSimResult b = simB.runReplay(*loaded);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.minV, b.minV);
    EXPECT_EQ(a.maxV, b.maxV);
    EXPECT_EQ(a.stats.json(), b.stats.json());
    EXPECT_EQ(a.events.jsonl(), b.events.jsonl());

    // Releasing the last view unmaps the file.
    loaded.reset();
    EXPECT_EQ(ts.mappedBytes(), 0u);

    ts.configure("", 0);
    fs::remove_all(dir);
}

TEST(TraceStoreRoundTrip, DisabledStoreIsInert)
{
    TraceStore &ts = TraceStore::instance();
    ts.configure("", 0);
    EXPECT_FALSE(ts.enabled());

    std::string key;
    const CapturedTrace trace = captureTrace(611, key);
    EXPECT_FALSE(ts.save(key, trace));
    EXPECT_FALSE(ts.load(key).has_value());
}

// --------------------------------------------------------- validation

TEST(TraceStoreValidation, CorruptFilesWarnAndRecapture)
{
    TraceStore &ts = TraceStore::instance();
    const fs::path dir = freshStoreDir("validation");
    ts.configure(dir.string(), 1u << 30);

    std::string key;
    const CapturedTrace trace = captureTrace(907, key);
    ASSERT_TRUE(ts.save(key, trace));
    const fs::path file = dir / TraceStore::fileNameForKey(key);
    ASSERT_TRUE(fs::exists(file));
    std::string good;
    {
        std::ifstream in(file, std::ios::binary);
        std::stringstream buf;
        buf << in.rdbuf();
        good = buf.str();
    }
    ASSERT_GT(good.size(), 64u);

    const auto corruptTo = [&](const std::string &bytes) {
        std::ofstream out(file,
                          std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    };
    const auto expectReject = [&](const char *what) {
        const uint64_t before = ts.rejects();
        EXPECT_FALSE(ts.load(key).has_value()) << what;
        EXPECT_EQ(ts.rejects() - before, 1u) << what;
    };

    // Truncated payload (exact-size check).
    corruptTo(good.substr(0, good.size() - 8));
    expectReject("truncated");

    // One payload byte flipped (payload hash).
    {
        std::string bad = good;
        bad[bad.size() - 1] = static_cast<char>(bad.back() ^ 0x5a);
        corruptTo(bad);
        expectReject("payload flip");
    }

    // Future format version, and version 1, whose stats blob carried
    // a histogram flag per entry.
    for (const char version : {9, 1}) {
        std::string bad = good;
        bad[8] = version;
        corruptTo(bad);
        expectReject("version mismatch");
    }

    // Bad magic.
    {
        std::string bad = good;
        bad[0] = 'X';
        corruptTo(bad);
        expectReject("bad magic");
    }

    // Header bytes shorter than a header.
    corruptTo(good.substr(0, 17));
    expectReject("short file");

    // The recapture path rewrites the file and it serves again.
    ASSERT_TRUE(ts.save(key, trace));
    std::optional<CapturedTrace> reloaded = ts.load(key);
    ASSERT_TRUE(reloaded.has_value());
    expectSameTrace(trace, *reloaded);
    reloaded.reset();

    ts.configure("", 0);
    fs::remove_all(dir);
}

/**
 * A crafted 8 KiB file whose header passes every check done in
 * wrapping arithmetic: cycles = 1024 is within size / 8, and
 * statsBytes = size - statsOff (mod 2^64) makes statsOff + statsBytes
 * wrap to the file size, with a valid payload hash. Decoding its stats
 * blob would read ~28 KiB past the mapping; it must be rejected.
 */
TEST(TraceStoreValidation, WrappingSizeFieldsAreRejected)
{
    TraceStore &ts = TraceStore::instance();
    const fs::path dir = freshStoreDir("wrapping");
    ts.configure(dir.string(), 1u << 30);

    // Magic, version and reserved word from a genuine file, so the
    // crafted one gets past them whatever the current version is.
    std::string goodKey;
    const CapturedTrace good = captureTrace(611, goodKey);
    ASSERT_TRUE(ts.save(goodKey, good));
    std::string file(8192, '\0');
    {
        std::ifstream in(dir / TraceStore::fileNameForKey(goodKey),
                         std::ios::binary);
        ASSERT_TRUE(in.read(&file[0], 16));
    }

    const std::string key = "k";
    const uint64_t size = file.size();
    const uint64_t cycles = 1024;
    const auto align8 = [](uint64_t n) { return (n + 7) & ~uint64_t{7}; };
    const uint64_t statsOff =
        align8(align8(64 + key.size()) + cycles * sizeof(double) +
               cycles * sizeof(obs::ActivityRow));
    ASSERT_GT(statsOff, size);
    const auto putU64 = [&](size_t at, uint64_t v) {
        std::memcpy(&file[at], &v, sizeof v);
    };
    putU64(16, key.size());
    putU64(24, cycles);
    putU64(48, size - statsOff); // wraps
    file[64] = key[0];
    uint64_t hash = 0xcbf29ce484222325ull; // FNV-1a 64 over [64, EOF)
    for (size_t i = 64; i < file.size(); ++i) {
        hash ^= static_cast<unsigned char>(file[i]);
        hash *= 0x100000001b3ull;
    }
    putU64(56, hash);
    {
        std::ofstream out(dir / TraceStore::fileNameForKey(key),
                          std::ios::binary);
        out.write(file.data(), static_cast<std::streamsize>(size));
    }

    const uint64_t before = ts.rejects();
    EXPECT_FALSE(ts.load(key).has_value());
    EXPECT_EQ(ts.rejects() - before, 1u);

    ts.configure("", 0);
    fs::remove_all(dir);
}

// ----------------------------------------------------------- eviction

TEST(TraceStoreEviction, OldestMtimeEvictedAndLoadsBumpRecency)
{
    TraceStore &ts = TraceStore::instance();
    const fs::path dir = freshStoreDir("eviction");
    ts.configure(dir.string(), 1u << 30);

    std::string key;
    const CapturedTrace trace = captureTrace(701, key);

    const auto fileFor = [&](const char *k) {
        return dir / TraceStore::fileNameForKey(k);
    };
    const auto pause = [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    };

    // Keys are opaque to the store: persist one trace under three
    // names to get three equal-size files with ordered mtimes.
    ASSERT_TRUE(ts.save("evict-a", trace));
    const uintmax_t fileBytes = fs::file_size(fileFor("evict-a"));
    ASSERT_GT(fileBytes, 64u);

    // Budget fits two files but not three.
    ts.configure(dir.string(), static_cast<size_t>(fileBytes * 5 / 2));
    pause();
    ASSERT_TRUE(ts.save("evict-b", trace));

    // Bump a's recency: the sweep must now prefer evicting b.
    pause();
    ASSERT_TRUE(ts.load("evict-a").has_value());

    pause();
    const uint64_t evictBefore = ts.evicts();
    ASSERT_TRUE(ts.save("evict-c", trace));
    EXPECT_EQ(ts.evicts() - evictBefore, 1u);
    EXPECT_TRUE(fs::exists(fileFor("evict-a"))) << "recently loaded";
    EXPECT_FALSE(fs::exists(fileFor("evict-b"))) << "oldest mtime";
    EXPECT_TRUE(fs::exists(fileFor("evict-c"))) << "just written";

    ts.configure("", 0);
    fs::remove_all(dir);
}

// ------------------------------------------------------ writer races

TEST(TraceStoreMultiProcess, ConcurrentWritersNeverTearTheFile)
{
    TraceStore &ts = TraceStore::instance();
    const fs::path dir = freshStoreDir("race");
    ts.configure(dir.string(), 1u << 30);

    std::string key;
    const CapturedTrace trace = captureTrace(809, key);

    // Eight processes race tmp-write + rename on the same final name.
    constexpr int kWriters = 8;
    std::vector<pid_t> pids;
    for (int i = 0; i < kWriters; ++i) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            const bool ok = TraceStore::instance().save(key, trace);
            ::_exit(ok ? 0 : 1);
        }
        pids.push_back(pid);
    }
    for (const pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0);
    }

    // No temp droppings, and the surviving file validates + matches.
    size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().extension(), ".vgt")
            << "leftover " << entry.path();
        ++files;
    }
    EXPECT_EQ(files, 1u);
    const uint64_t rejBefore = ts.rejects();
    std::optional<CapturedTrace> loaded = ts.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(ts.rejects(), rejBefore);
    expectSameTrace(trace, *loaded);
    loaded.reset();

    ts.configure("", 0);
    fs::remove_all(dir);
}

} // namespace
