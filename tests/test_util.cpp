/**
 * @file
 * Unit tests for src/util: RNG, running statistics, histogram, tables,
 * logging and the parallel-for.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include "util/json_parse.hpp"
#include "util/jsonl.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using vguard::Histogram;
using vguard::Rng;
using vguard::RunningStat;
using vguard::Table;

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntervalRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, BelowInRange)
{
    Rng r(3);
    std::set<uint64_t> seen;
    for (int i = 0; i < 5000; ++i) {
        const uint64_t v = r.below(17);
        EXPECT_LT(v, 17u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 17u); // all residues hit
}

TEST(Rng, ChanceExtremes)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng r(99);
    const uint64_t first = r.next();
    r.next();
    r.reseed(99);
    EXPECT_EQ(r.next(), first);
}

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, SingleSample)
{
    RunningStat s;
    s.add(3.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.5);
    EXPECT_DOUBLE_EQ(s.min(), 3.5);
    EXPECT_DOUBLE_EQ(s.max(), 3.5);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownMoments)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0); // population variance
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesCombined)
{
    RunningStat a, b, whole;
    vguard::Rng r(21);
    for (int i = 0; i < 1000; ++i) {
        const double x = r.uniform(-10, 10);
        whole.add(x);
        (i < 400 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, b;
    a.add(1.0);
    a.add(2.0);
    const double mean = a.mean();
    a.merge(b); // no-op
    EXPECT_DOUBLE_EQ(a.mean(), mean);
    b.merge(a); // copy
    EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(RunningStat, Reset)
{
    RunningStat s;
    s.add(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Histogram, BinAssignment)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.0);   // bin 0
    h.add(0.999); // bin 0
    h.add(1.0);   // bin 1
    h.add(9.999); // bin 9
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(9), 1u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, OutOfRange)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-0.1);
    h.add(1.0); // hi edge is exclusive
    h.add(5.0);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BinCenters)
{
    Histogram h(0.0, 1.0, 4);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 0.125);
    EXPECT_DOUBLE_EQ(h.binCenter(3), 0.875);
}

TEST(Histogram, Fractions)
{
    Histogram h(0.0, 1.0, 2);
    h.add(0.25);
    h.add(0.25);
    h.add(0.75);
    h.add(0.75);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
    EXPECT_DOUBLE_EQ(h.fraction(1), 0.5);
}

TEST(Histogram, FractionBelow)
{
    Histogram h(0.0, 1.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(0.05 + 0.1 * i); // one sample per bin
    EXPECT_DOUBLE_EQ(h.fractionBelow(0.5), 0.5);
    EXPECT_DOUBLE_EQ(h.fractionBelow(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionBelow(1.0), 1.0);
}

TEST(Histogram, FractionBelowAgreesWithAddAtBinBoundaries)
{
    // Regression: the old implementation located x by accumulating bin
    // upper edges (lo + (i+1)*w and comparing with <=), which drifts
    // from add()'s (x - lo) / w division by an ulp on boundaries the
    // width does not represent exactly. With [0, 1.1) split 13 ways,
    // x = lo + 3w rounds *below* the accumulated third edge, so the old
    // code counted the sample's own bin as "below" it.
    Histogram h(0.0, 1.1, 13);
    const double w = 1.1 / 13.0;
    const double x = 0.0 + 3 * w;
    h.add(x);
    ASSERT_EQ(h.count(2), 1u); // add() places lo + 3w in bin 2 (fp)
    EXPECT_DOUBLE_EQ(h.fractionBelow(x), 0.0); // own bin is not below

    // Sweep every representable boundary of several geometries: a
    // sample added at a boundary must never count below itself.
    for (size_t bins : {size_t{13}, size_t{80}, size_t{7}}) {
        Histogram g(0.0, 1.1, bins);
        const double bw = 1.1 / static_cast<double>(bins);
        for (size_t k = 1; k < bins; ++k) {
            const double b = static_cast<double>(k) * bw;
            g.reset();
            g.add(b);
            EXPECT_DOUBLE_EQ(g.fractionBelow(b), 0.0)
                << "bins=" << bins << " k=" << k;
        }
    }
}

TEST(Histogram, FractionBelowCountsUnderflowAndExcludesOverflow)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-1.0); // underflow
    h.add(0.1);  // bin 0
    h.add(0.6);  // bin 2
    h.add(2.0);  // overflow
    EXPECT_DOUBLE_EQ(h.fractionBelow(-0.5), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionBelow(0.05), 0.25); // underflow only
    EXPECT_DOUBLE_EQ(h.fractionBelow(0.5), 0.5);   // + bin 0
    EXPECT_DOUBLE_EQ(h.fractionBelow(1.0), 0.75);  // all bins, no ovf
    EXPECT_DOUBLE_EQ(h.fractionBelow(9.0), 0.75);
}

TEST(Histogram, Reset)
{
    Histogram h(0.0, 1.0, 2);
    h.add(0.5);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.count(1), 0u);
}

TEST(Histogram, AsciiContainsBars)
{
    Histogram h(0.0, 1.0, 3);
    for (int i = 0; i < 10; ++i)
        h.add(0.5);
    const std::string art = h.ascii(20);
    EXPECT_NE(art.find('#'), std::string::npos);
    EXPECT_NE(art.find('%'), std::string::npos);
}

TEST(Table, AsciiHasHeadersAndRows)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "2"});
    const std::string a = t.ascii();
    EXPECT_NE(a.find("name"), std::string::npos);
    EXPECT_NE(a.find("alpha"), std::string::npos);
    EXPECT_NE(a.find("beta"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 2u);
}

TEST(Table, ShortRowsPadded)
{
    Table t({"a", "b", "c"});
    t.addRow({"only"});
    EXPECT_NE(t.ascii().find("only"), std::string::npos);
    EXPECT_NE(t.csv().find("only,,"), std::string::npos);
}

TEST(Table, CsvQuoting)
{
    Table t({"x"});
    t.addRow({"has,comma"});
    t.addRow({"has\"quote"});
    const std::string csv = t.csv();
    EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, FmtPrecision)
{
    EXPECT_EQ(Table::fmt(1.5), "1.5");
    EXPECT_EQ(Table::fmt(0.123456789, 3), "0.123");
}

TEST(NumbersEquivalent, FormattingVariantsCompareEqual)
{
    // A baseline regenerated with different float formatting must
    // still match: 0.5 and 5e-1 are the same number. The old raw-byte
    // comparison in vguard-report's equals_baseline failed this.
    auto num = [](const char *text) {
        return vguard::parseJsonOrDie(text, "test");
    };
    EXPECT_TRUE(vguard::numbersEquivalent(num("0.5"), num("5e-1")));
    EXPECT_TRUE(vguard::numbersEquivalent(num("8"), num("8.0")));
    EXPECT_TRUE(vguard::numbersEquivalent(num("1000"), num("1e3")));
    EXPECT_TRUE(vguard::numbersEquivalent(num("-0.25"), num("-2.5e-1")));
    EXPECT_FALSE(vguard::numbersEquivalent(num("0.5"), num("0.5000001")));
}

TEST(NumbersEquivalent, IntegerSpellingsStayExactPastDoubleRange)
{
    // 2^53 and 2^53 + 1 collapse onto the same double; the integer
    // fast path must still tell them apart.
    auto num = [](const char *text) {
        return vguard::parseJsonOrDie(text, "test");
    };
    EXPECT_FALSE(vguard::numbersEquivalent(num("9007199254740993"),
                                           num("9007199254740992")));
    EXPECT_TRUE(vguard::numbersEquivalent(num("9007199254740993"),
                                          num("9007199254740993")));
}

TEST(NumbersEquivalent, NonNumbersNeverEqual)
{
    auto val = [](const char *text) {
        return vguard::parseJsonOrDie(text, "test");
    };
    EXPECT_FALSE(vguard::numbersEquivalent(val("\"5\""), val("5")));
    EXPECT_FALSE(vguard::numbersEquivalent(val("true"), val("1")));
    EXPECT_FALSE(vguard::numbersEquivalent(val("null"), val("null")));
}

TEST(JsonWriter, NonFiniteDoublesEmitStringSentinels)
{
    using vguard::JsonWriter;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(JsonWriter::number(nan), "\"nan\"");
    EXPECT_EQ(JsonWriter::number(inf), "\"inf\"");
    EXPECT_EQ(JsonWriter::number(-inf), "\"-inf\"");

    JsonWriter w;
    w.beginObject();
    w.field("a", nan);
    w.field("b", inf);
    w.field("c", -inf);
    w.field("d", 1.5);
    w.endObject();
    // The document must stay valid JSON: no bare nan/inf tokens.
    EXPECT_EQ(w.take(),
              "{\"a\":\"nan\",\"b\":\"inf\",\"c\":\"-inf\",\"d\":1.5}");
}

TEST(JsonWriter, NonFiniteSentinelsRoundTrip)
{
    using vguard::JsonWriter;
    // The sentinel's unquoted text must parse back (strtod accepts
    // "nan"/"inf"/"-inf") to a value of the same class and sign, so a
    // reader that unwraps the string recovers the original.
    const double cases[] = {std::numeric_limits<double>::quiet_NaN(),
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity()};
    for (double v : cases) {
        std::string s = JsonWriter::number(v);
        ASSERT_GE(s.size(), 2u);
        ASSERT_EQ(s.front(), '"');
        ASSERT_EQ(s.back(), '"');
        const std::string inner = s.substr(1, s.size() - 2);
        const double back = std::strtod(inner.c_str(), nullptr);
        EXPECT_EQ(std::isnan(back), std::isnan(v));
        EXPECT_EQ(std::isinf(back), std::isinf(v));
        if (!std::isnan(v)) {
            EXPECT_EQ(std::signbit(back), std::signbit(v));
        }
    }
    // Finite values keep round-tripping exactly (shortest form).
    for (double v : {0.0, -0.25, 1e-300, 3.141592653589793}) {
        const std::string s = JsonWriter::number(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v);
    }
}

// --------------------------------------------------------------- logging

/** RAII redirect of a FILE* fd into a temp file. */
class CaptureFd
{
  public:
    explicit CaptureFd(FILE *stream) : stream_(stream)
    {
        std::fflush(stream_);
        fd_ = fileno(stream_);
        saved_ = dup(fd_);
        std::snprintf(path_, sizeof(path_),
                      "/tmp/vguard_capture_XXXXXX");
        const int tmp = mkstemp(path_);
        EXPECT_GE(tmp, 0);
        dup2(tmp, fd_);
        close(tmp);
    }

    /** Restore the stream and return everything captured. */
    std::string finish()
    {
        std::fflush(stream_);
        dup2(saved_, fd_);
        close(saved_);
        std::string text;
        if (FILE *f = std::fopen(path_, "rb")) {
            char buf[4096];
            size_t n;
            while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
                text.append(buf, n);
            std::fclose(f);
        }
        std::remove(path_);
        return text;
    }

  private:
    FILE *stream_;
    int fd_ = -1;
    int saved_ = -1;
    char path_[64];
};

TEST(Logging, ConcurrentWarnsDoNotTearLines)
{
    // Regression test for the multi-fputs vprint: N threads hammer
    // warn() while another flips the verbosity; every captured line
    // must be exactly one complete "warn: t<i> m<j> end" record.
    // Run under TSan (-DVGUARD_SANITIZE=thread) this also proves the
    // verbosity global is race-free.
    constexpr int kThreads = 8;
    constexpr int kMessages = 200;

    CaptureFd capture(stderr);
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(kThreads + 1);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([t, &go] {
            while (!go.load(std::memory_order_acquire)) {
            }
            for (int j = 0; j < kMessages; ++j)
                vguard::warn("t%d m%d end", t, j);
        });
    }
    workers.emplace_back([&go] {
        while (!go.load(std::memory_order_acquire)) {
        }
        using vguard::Verbosity;
        for (int i = 0; i < 400; ++i) {
            vguard::setVerbosity(i % 2 ? Verbosity::Debug
                                       : Verbosity::Normal);
            (void)vguard::verbosity();
        }
    });
    go.store(true, std::memory_order_release);
    for (auto &w : workers)
        w.join();
    vguard::setVerbosity(vguard::Verbosity::Normal);

    const std::string text = capture.finish();
    std::istringstream lines(text);
    std::string line;
    size_t count = 0;
    std::set<std::string> seen;
    while (std::getline(lines, line)) {
        ++count;
        // Every line is whole: correct prefix, correct suffix, and a
        // unique (thread, message) tag — interleaving would corrupt
        // at least one of these.
        EXPECT_EQ(line.rfind("warn: t", 0), 0u) << line;
        ASSERT_GE(line.size(), 4u);
        EXPECT_EQ(line.substr(line.size() - 4), " end") << line;
        EXPECT_TRUE(seen.insert(line).second) << "duplicate: " << line;
    }
    EXPECT_EQ(count, size_t(kThreads) * kMessages);
}

TEST(Logging, QuietSuppressesInformButNotWarn)
{
    CaptureFd err(stderr);
    vguard::setVerbosity(vguard::Verbosity::Quiet);
    vguard::warn("still visible");
    vguard::setVerbosity(vguard::Verbosity::Normal);
    const std::string text = err.finish();
    EXPECT_NE(text.find("warn: still visible"), std::string::npos);
}

TEST(Logging, OversizedMessageSurvivesHeapFallback)
{
    // Messages longer than vprint's stack buffer must still come out
    // complete and untruncated.
    const std::string big(2000, 'x');
    CaptureFd err(stderr);
    vguard::warn("pre %s post", big.c_str());
    const std::string text = err.finish();
    EXPECT_NE(text.find("warn: pre " + big + " post\n"),
              std::string::npos);
}

// ------------------------------------------------------------ parallel

TEST(Parallel, VisitsEachIndexExactlyOnce)
{
    for (const size_t count : {0, 1, 7, 200}) {
        for (const unsigned threads : {1u, 3u, 8u}) {
            std::vector<std::atomic<int>> visits(count);
            vguard::parallelFor(count, threads, [&](size_t i) {
                visits[i].fetch_add(1);
            });
            for (size_t i = 0; i < count; ++i)
                EXPECT_EQ(visits[i].load(), 1)
                    << "index " << i << " of " << count << " at "
                    << threads << " threads";
        }
    }
}

TEST(Parallel, OneWorkerRunsSeriallyOnTheCallingThread)
{
    std::vector<size_t> order;
    const std::thread::id caller = std::this_thread::get_id();
    vguard::parallelFor(5, 1, [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(Parallel, RethrowsFirstErrorAfterEveryWorkerJoins)
{
    // Every 50th index throws, index 0 first, while most indices are
    // still to run: one of the throws must reach the caller, and only
    // after every other index has finished.
    for (const unsigned threads : {3u, 8u}) {
        constexpr size_t kCount = 200;
        std::atomic<size_t> finished{0};
        std::atomic<int> inBody{0};
        std::string caught;
        try {
            vguard::parallelFor(kCount, threads, [&](size_t i) {
                inBody.fetch_add(1);
                if (i % 50 == 0) {
                    inBody.fetch_sub(1);
                    throw std::runtime_error("index " +
                                             std::to_string(i));
                }
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                finished.fetch_add(1);
                inBody.fetch_sub(1);
            });
        } catch (const std::runtime_error &e) {
            caught = e.what();
        }
        EXPECT_EQ(caught.rfind("index ", 0), 0u) << caught;
        EXPECT_EQ(finished.load(), kCount - kCount / 50)
            << threads << " threads";
        EXPECT_EQ(inBody.load(), 0) << threads << " threads";
    }
}

} // namespace
