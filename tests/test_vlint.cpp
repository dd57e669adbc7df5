/**
 * @file
 * vlint's own test suite: positive and negative fixture snippets for
 * every rule, suppression parsing, baseline round-trip, and the
 * "tree is clean" gate that lints the real repository.
 *
 * Fixtures are inline raw strings passed through lintSource() under a
 * synthetic path, because each rule's applicability depends on the
 * directory the file claims to live in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analyzer.hpp"

using vlint::Finding;
using vlint::lintSource;

namespace {

std::vector<std::string>
rulesIn(const std::vector<Finding> &findings)
{
    std::vector<std::string> out;
    for (const Finding &f : findings)
        out.push_back(f.rule);
    return out;
}

bool
hasRule(const std::vector<Finding> &findings, const std::string &rule)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const Finding &f) { return f.rule == rule; });
}

} // namespace

// ------------------------------------------------------------ det-rand

TEST(VlintDetRand, FlagsRandFamilyEverywhere)
{
    const auto f = lintSource("tests/test_foo.cpp", R"(
        int draw() { return rand(); }
    )");
    ASSERT_TRUE(hasRule(f, "det-rand"));
}

TEST(VlintDetRand, FlagsTimeAndClockCallsOnly)
{
    EXPECT_TRUE(hasRule(lintSource("src/core/x.cpp",
                                   "long t = time(nullptr);"),
                        "det-rand"));
    EXPECT_TRUE(hasRule(lintSource("src/core/x.cpp",
                                   "long t = clock();"),
                        "det-rand"));
    // `time` as a plain variable name is not a call.
    EXPECT_FALSE(hasRule(lintSource("src/core/x.cpp",
                                    "double time = 0.0;"),
                         "det-rand"));
}

TEST(VlintDetRand, RngHeaderIsExempt)
{
    EXPECT_FALSE(hasRule(lintSource("src/util/rng.hpp",
                                    "uint64_t rand();"),
                         "det-rand"));
}

TEST(VlintDetRand, IgnoresStringsAndComments)
{
    const auto f = lintSource("src/core/x.cpp", R"fix(
        // rand() in a comment is fine
        const char *s = "srand(time(nullptr))";
        /* mt19937 in a block comment */
    )fix");
    EXPECT_FALSE(hasRule(f, "det-rand"));
}

// ------------------------------------------------------- det-wallclock

TEST(VlintWallclock, FlagsSteadyClockInSrc)
{
    const auto f = lintSource(
        "src/core/x.cpp",
        "auto t0 = std::chrono::steady_clock::now();");
    ASSERT_TRUE(hasRule(f, "det-wallclock"));
}

TEST(VlintWallclock, TracerImplementationIsWhitelisted)
{
    // The tracer owns the clock; both its translation units sit in
    // the one whitelisted zone.
    for (const char *file :
         {"src/obs/tracing.cpp", "src/obs/tracing.hpp"})
        EXPECT_FALSE(hasRule(
            lintSource(file,
                       "auto t0 = std::chrono::steady_clock::now();"),
            "det-wallclock"))
            << file;
}

TEST(VlintWallclock, TracingWhitelistDoesNotLeakToNeighbours)
{
    // The whitelist is a filename prefix on tracing.*, not a blanket
    // pass for src/obs/ — a near-miss neighbour, or the old profiler
    // header, stays flagged.
    for (const char *file : {"src/obs/tracing_extras.cpp",
                             "src/obs/events.cpp", "src/obs/profile.hpp"})
        EXPECT_TRUE(hasRule(
            lintSource(file,
                       "auto t0 = std::chrono::steady_clock::now();"),
            "det-wallclock"))
            << file;
}

TEST(VlintWallclock, BenchTimingHarnessesAreOutOfScope)
{
    // Benches measure wall time by design; the rule protects src/.
    EXPECT_FALSE(hasRule(
        lintSource("bench/bench_x.cpp",
                   "auto t0 = std::chrono::steady_clock::now();"),
        "det-wallclock"));
}

// ------------------------------------------- det-unordered / det-ptr-key

TEST(VlintUnordered, FlagsUnorderedContainersInResultDirs)
{
    for (const char *dir : {"src/core/", "src/pdn/", "src/power/",
                            "src/cpu/"}) {
        const auto f =
            lintSource(std::string(dir) + "x.hpp",
                       "std::unordered_map<int, int> m_;");
        EXPECT_TRUE(hasRule(f, "det-unordered")) << dir;
    }
}

TEST(VlintUnordered, OutsideResultDirsIsAllowed)
{
    EXPECT_FALSE(hasRule(lintSource("src/isa/x.hpp",
                                    "std::unordered_map<int, int> m;"),
                         "det-unordered"));
}

TEST(VlintPtrKey, FlagsPointerKeyedMap)
{
    const auto f = lintSource(
        "src/core/x.cpp",
        "std::map<const Node *, int> order; std::set<Foo *> live;");
    const auto rules = rulesIn(f);
    EXPECT_EQ(2, std::count(rules.begin(), rules.end(),
                            "det-ptr-key"));
}

TEST(VlintPtrKey, ValuePointersAreFine)
{
    EXPECT_FALSE(hasRule(
        lintSource("src/core/x.cpp",
                   "std::map<std::string, Node *> byName;"),
        "det-ptr-key"));
}

// ------------------------------------------------------------ fp-float

TEST(VlintFpFloat, FlagsFloatTypeAndLiteralInNumericDirs)
{
    const auto f = lintSource("src/linsys/x.cpp",
                              "float a = 1.0f; double b = 2.0;");
    const auto rules = rulesIn(f);
    EXPECT_EQ(2, std::count(rules.begin(), rules.end(), "fp-float"));
}

TEST(VlintFpFloat, HexIntegerEndingInFIsNotAFloat)
{
    EXPECT_FALSE(hasRule(lintSource("src/pdn/x.cpp",
                                    "unsigned mask = 0xFf;"),
                         "fp-float"));
    EXPECT_TRUE(hasRule(lintSource("src/pdn/x.cpp",
                                   "double h = 0x1.8p3f;"),
                        "fp-float"));
}

TEST(VlintFpFloat, CpuActivityFactorsMayUseFloat)
{
    EXPECT_FALSE(hasRule(lintSource("src/cpu/x.hpp",
                                    "float activity = 0.0f;"),
                         "fp-float"));
}

// ------------------------------------------------------ simd-intrinsic

TEST(VlintSimdIntrinsic, FlagsRawIntrinsicsOutsideWrapper)
{
    EXPECT_TRUE(hasRule(
        lintSource("src/pdn/x.cpp",
                   "__m256d v = _mm256_mul_pd(a, b);"),
        "simd-intrinsic"));
    EXPECT_TRUE(hasRule(
        lintSource("src/core/x.cpp",
                   "float64x2_t r = vfmaq_f64(c, a, b);"),
        "simd-intrinsic"));
    EXPECT_TRUE(hasRule(lintSource("bench/x.cpp",
                                   "auto z = _mm512_add_pd(a, b);"),
                        "simd-intrinsic"));
}

TEST(VlintSimdIntrinsic, WrapperHeaderIsExempt)
{
    EXPECT_FALSE(hasRule(
        lintSource("src/util/simd.hpp",
                   "__m256d v = _mm256_add_pd(a.v, b.v);"),
        "simd-intrinsic"));
}

TEST(VlintSimdIntrinsic, OrdinaryIdentifiersPass)
{
    EXPECT_FALSE(hasRule(
        lintSource("src/pdn/x.cpp",
                   "double vstep = vlast + mm * 2.0;"),
        "simd-intrinsic"));
}

TEST(VlintSimdIntrinsic, FloatStaysBannedInsideWrapper)
{
    // The wrapper escapes the intrinsic rule but not fp-float: its
    // packs are double-only by contract.
    EXPECT_TRUE(hasRule(lintSource("src/util/simd.hpp",
                                   "float x = 1.0f;"),
                        "fp-float"));
}

// -------------------------------------------------------------- raw-io

TEST(VlintRawIo, FlagsRawSyscallsOutsideSanctionedTus)
{
    EXPECT_TRUE(hasRule(
        lintSource("src/core/x.cpp",
                   "void *p = mmap(nullptr, n, prot, flags, fd, 0);"),
        "raw-io"));
    EXPECT_TRUE(hasRule(lintSource("tools/foo/main.cpp",
                                   "int s = ::socket(AF_UNIX, t, 0);"),
                        "raw-io"));
    EXPECT_TRUE(hasRule(lintSource("src/core/campaign.cpp",
                                   "int c = accept4(fd, a, l, f);"),
                        "raw-io"));
}
TEST(VlintRawIo, OnlyTraceStoreTuIsExempt)
{
    EXPECT_FALSE(hasRule(
        lintSource("src/core/trace_store.cpp",
                   "void *p = mmap(nullptr, n, prot, flags, fd, 0);"),
        "raw-io"));
    // Its header and sibling TUs get no exemption.
    EXPECT_TRUE(hasRule(lintSource("src/core/trace_store.hpp",
                                   "int s = ::socket(AF_UNIX, t, 0);"),
                        "raw-io"));
    EXPECT_TRUE(hasRule(lintSource("src/core/trace_cache.cpp",
                                   "int r = fsync(fd);"),
                        "raw-io"));
}
TEST(VlintRawIo, MemberAndQualifiedCallsAreNotSyscalls)
{
    EXPECT_FALSE(hasRule(lintSource("src/core/x.cpp",
                                    "db.connect(url); q->accept(v);"),
                         "raw-io"));
    EXPECT_FALSE(hasRule(lintSource("src/core/x.cpp",
                                    "auto f = sig::connect(slot);"),
                         "raw-io"));
    // Comments and strings never fire (token-stream rule).
    EXPECT_FALSE(hasRule(lintSource("src/core/x.cpp",
                                    "// call socket(2) by hand\n"
                                    "const char *s = \"mmap(\";"),
                         "raw-io"));
}

// ---------------------------------------------------------- fp-pow-int

TEST(VlintPowInt, FlagsIntegerExponent)
{
    EXPECT_TRUE(hasRule(lintSource("src/pdn/x.cpp",
                                   "double y = std::pow(x, 2);"),
                        "fp-pow-int"));
    EXPECT_TRUE(hasRule(lintSource("src/pdn/x.cpp",
                                   "double y = std::pow(x, -3);"),
                        "fp-pow-int"));
}

TEST(VlintPowInt, RealExponentIsFine)
{
    EXPECT_FALSE(hasRule(lintSource("src/pdn/x.cpp",
                                    "double y = std::pow(err, -0.5);"),
                         "fp-pow-int"));
    EXPECT_FALSE(hasRule(
        lintSource("src/pdn/x.cpp", "double y = std::pow(x, n);"),
        "fp-pow-int"));
}

// ------------------------------------------------------- thread-static

TEST(VlintThreadStatic, FlagsBareMutableLocalStatic)
{
    const auto f = lintSource("src/core/x.cpp", R"(
        int &counter() {
            static int calls = 0;
            return calls;
        }
    )");
    ASSERT_TRUE(hasRule(f, "thread-static"));
}

TEST(VlintThreadStatic, ConstAndSyncObjectsPass)
{
    const auto f = lintSource("src/core/x.cpp", R"(
        const char *name() {
            static const char *const names[] = {"a", "b"};
            static std::mutex m;
            static std::atomic<int> hits{0};
            static constexpr int k = 3;
            return names[0];
        }
    )");
    EXPECT_FALSE(hasRule(f, "thread-static"));
}

TEST(VlintThreadStatic, MutablePointerArrayBehindConstIsCaught)
{
    // The exact shape fixed in src/obs/events.cpp this PR: the
    // pointees are const but the pointers are not.
    const auto f = lintSource("src/core/x.cpp", R"(
        void emit() {
            static const char *levels[] = {"low", "high"};
            use(levels);
        }
    )");
    ASSERT_TRUE(hasRule(f, "thread-static"));
}

TEST(VlintThreadStatic, MutexInDeclarationRegionLegitimizes)
{
    // The experiments.cpp idiom: map + mutex declared together.
    const auto f = lintSource("src/core/x.cpp", R"(
        Entry *lookup(Key k) {
            static std::mutex cacheMutex;
            static std::map<Key, Entry> cache;
            std::lock_guard<std::mutex> lock(cacheMutex);
            return &cache[k];
        }
    )");
    EXPECT_FALSE(hasRule(f, "thread-static"));
}

TEST(VlintThreadStatic, StaticAfterLambdaCallArgumentIsStillSeen)
{
    // Regression: the declaration scanner resynchronized one token too
    // far after a braced construct inside a statement, so a lambda
    // passed as a call argument desynced the scope tracker and masked
    // every static later in the function.
    const auto f = lintSource("src/core/x.cpp", R"(
        void poll(Queue &q) {
            q.forEach([&](int v) { acc += v; });
            static int polls = 0;
            ++polls;
        }
    )");
    ASSERT_TRUE(hasRule(f, "thread-static"));
}

TEST(VlintThreadStatic, ClassStaticsAndFileStaticsAreNotLocal)
{
    const auto f = lintSource("src/core/x.cpp", R"(
        static int fileLocalFunctionCount = 0;   // namespace scope
        class Foo {
            static int instances_;               // class scope
            static Foo &instance();
        };
        namespace detail {
        static double tableau[4];                // namespace scope
        }
    )");
    EXPECT_FALSE(hasRule(f, "thread-static"));
}

// ----------------------------------------------------- obs-metric-name

TEST(VlintMetricName, ValidatesRegistrarLiterals)
{
    EXPECT_TRUE(hasRule(
        lintSource("src/cpu/x.cpp",
                   R"(s.addCounter("Fetch.Insts", "d", n);)"),
        "obs-metric-name"));
    EXPECT_TRUE(hasRule(
        lintSource("src/cpu/x.cpp",
                   R"(s.addGauge("commit..ipc", "d", v);)"),
        "obs-metric-name"));
    EXPECT_TRUE(hasRule(
        lintSource("src/cpu/x.cpp",
                   R"(counter("fetch.stall-icache", "d", s.x);)"),
        "obs-metric-name"));
    EXPECT_TRUE(hasRule(
        lintSource("src/cpu/x.cpp",
                   R"(counter(".cycles", "d", s.x);)"),
        "obs-metric-name"));
    EXPECT_FALSE(hasRule(
        lintSource("src/cpu/x.cpp",
                   R"(counter("fetch.stall_icache", "d", s.x);)"),
        "obs-metric-name"));
    EXPECT_FALSE(hasRule(
        lintSource("src/cpu/x.cpp",
                   R"(s.addGauge("pdn.v.min", "d", v, rule);)"),
        "obs-metric-name"));
}

TEST(VlintMetricName, NonLiteralFirstArgIsSkipped)
{
    EXPECT_FALSE(hasRule(
        lintSource("src/cpu/x.cpp",
                   R"(s.addCounter(prefix + ".cycles", "d", n);)"),
        "obs-metric-name"));
}

// ----------------------------------------------------------- hyg-guard

TEST(VlintGuard, AcceptsPragmaOnceAndIfndefGuards)
{
    EXPECT_FALSE(hasRule(lintSource("src/core/a.hpp",
                                    "#pragma once\nint x;\n"),
                         "hyg-guard"));
    EXPECT_FALSE(hasRule(
        lintSource("src/core/b.hpp",
                   "#ifndef VGUARD_B_HPP\n#define VGUARD_B_HPP\n"
                   "#endif\n"),
        "hyg-guard"));
}

TEST(VlintGuard, FlagsUnguardedHeader)
{
    EXPECT_TRUE(hasRule(lintSource("src/core/c.hpp",
                                   "#include <vector>\nint x;\n"),
                        "hyg-guard"));
    // Mismatched #define does not count as a guard.
    EXPECT_TRUE(hasRule(
        lintSource("src/core/d.hpp",
                   "#ifndef VGUARD_D_HPP\n#define OTHER\n#endif\n"),
        "hyg-guard"));
}

// --------------------------------------------------- hyg-include-order

TEST(VlintIncludeOrder, OwnHeaderMustComeFirst)
{
    const std::set<std::string> tree = {"src/core/foo.hpp",
                                        "src/core/foo.cpp"};
    EXPECT_TRUE(hasRule(lintSource("src/core/foo.cpp",
                                   "#include <vector>\n"
                                   "#include \"core/foo.hpp\"\n",
                                   tree),
                        "hyg-include-order"));
    EXPECT_FALSE(hasRule(lintSource("src/core/foo.cpp",
                                    "#include \"core/foo.hpp\"\n"
                                    "#include <vector>\n",
                                    tree),
                         "hyg-include-order"));
    EXPECT_TRUE(hasRule(
        lintSource("src/core/foo.cpp", "#include <vector>\n", tree),
        "hyg-include-order"));
}

TEST(VlintIncludeOrder, NoSiblingHeaderMeansNoRule)
{
    EXPECT_FALSE(hasRule(lintSource("src/core/main.cpp",
                                    "#include <vector>\n",
                                    {"src/core/main.cpp"}),
                         "hyg-include-order"));
}

// ------------------------------------------------------- hyg-using-ns

TEST(VlintUsingNs, FlagsUsingNamespaceInHeadersOnly)
{
    EXPECT_TRUE(hasRule(lintSource("src/core/x.hpp",
                                   "using namespace std;"),
                        "hyg-using-ns"));
    EXPECT_FALSE(hasRule(lintSource("src/core/x.cpp",
                                    "using namespace std::chrono;"),
                         "hyg-using-ns"));
}

// -------------------------------------------------------- suppressions

TEST(VlintSuppression, SameLineAndPrecedingLineForms)
{
    std::vector<Finding> suppressed;
    const auto sameLine = lintSource(
        "src/core/x.cpp",
        "int r = rand(); // vlint: allow(det-rand) fixture needs it\n",
        {}, &suppressed);
    EXPECT_FALSE(hasRule(sameLine, "det-rand"));
    ASSERT_EQ(1u, suppressed.size());
    EXPECT_EQ("det-rand", suppressed[0].rule);

    const auto prevLine = lintSource(
        "src/core/x.cpp",
        "// vlint: allow(det-rand) fixture needs it\nint r = rand();\n");
    EXPECT_FALSE(hasRule(prevLine, "det-rand"));
}

TEST(VlintSuppression, OnlyNamedRulesAreSilenced)
{
    const auto f = lintSource(
        "src/core/x.cpp",
        "int r = rand(); // vlint: allow(det-wallclock) wrong rule\n");
    EXPECT_TRUE(hasRule(f, "det-rand"));
}

TEST(VlintSuppression, CommaListCoversMultipleRules)
{
    const auto f = lintSource(
        "src/linsys/x.cpp",
        "float r = rand(); "
        "// vlint: allow(det-rand, fp-float) fixture\n");
    EXPECT_FALSE(hasRule(f, "det-rand"));
    EXPECT_FALSE(hasRule(f, "fp-float"));
}

TEST(VlintSuppression, MissingReasonIsItselfAFinding)
{
    const auto f = lintSource(
        "src/core/x.cpp",
        "int r = rand(); // vlint: allow(det-rand)\n");
    EXPECT_TRUE(hasRule(f, "hyg-suppression"));
}

TEST(VlintSuppression, MalformedCommentIsAFinding)
{
    const auto f = lintSource("src/core/x.cpp",
                              "// vlint: allow det-rand oops\n");
    EXPECT_TRUE(hasRule(f, "hyg-suppression"));
}

// ------------------------------------------------------------ baseline

TEST(VlintBaseline, RoundTripMatchesAndReportsStale)
{
    const auto findings =
        lintSource("src/core/x.cpp", "int r = rand();\n");
    ASSERT_FALSE(findings.empty());

    const std::string rendered = vlint::renderBaseline(findings);
    auto parsed = vlint::parseBaseline(rendered);
    EXPECT_EQ(findings.size(), parsed.size());
    for (const Finding &f : findings)
        EXPECT_EQ(1u, parsed.count(vlint::baselineKey(f)));

    // Reindentation must not change the key (whitespace-normalized
    // snippet), so baselines survive clang-format churn.
    const auto reindented =
        lintSource("src/core/x.cpp", "    int  r =  rand();\n");
    ASSERT_FALSE(reindented.empty());
    EXPECT_EQ(vlint::baselineKey(findings[0]),
              vlint::baselineKey(reindented[0]));

    // Comments and blank lines are ignored when parsing.
    auto withComments =
        vlint::parseBaseline("# header\n\n" + rendered);
    EXPECT_EQ(parsed, withComments);
}

TEST(VlintBaseline, LexerHandlesRawStringsAndContinuations)
{
    // A raw string containing what looks like code must not trip any
    // rule, and a continued #include directive is still one directive.
    const auto f = lintSource("src/core/x.cpp",
                              "const char *prog = R\"(rand(); "
                              "float x = 1.0f;)\";\n");
    EXPECT_TRUE(f.empty());
}

// ---------------------------------------------------------- tree clean

#ifdef VGUARD_SOURCE_DIR
TEST(VlintTree, RepositoryLintsClean)
{
    vlint::Options opt;
    opt.root = VGUARD_SOURCE_DIR;
    const vlint::Report report = vlint::lintTree(opt);
    EXPECT_GT(report.filesScanned, 100);
    for (const Finding &f : report.findings)
        ADD_FAILURE() << f.file << ":" << f.line << " [" << f.rule
                      << "] " << f.message;
    EXPECT_TRUE(report.staleBaseline.empty())
        << "baseline entries no longer match any finding";
    // Every suppression in the tree is intentional; keep the counts in
    // sync when adding one so drive-by allows stand out in review.
    // Current ledger: 3 alloc-hot (block-scratch resizes before the
    // cycle loop) + 5 single-file allows (two of them the mmap and
    // munmap of cpu::Cache's anonymous line mapping).
    size_t allocHot = 0;
    for (const Finding &f : report.suppressed)
        if (f.rule == "alloc-hot")
            ++allocHot;
    EXPECT_LE(allocHot, 3u)
        << "unexpected growth in alloc-hot suppressions";
    EXPECT_LE(report.suppressed.size(), 8u)
        << "unexpected growth in inline suppressions";
    // The cross-TU pass saw the whole tree: roots seeded, hot kernels
    // annotated, and a non-trivial call graph linked.
    EXPECT_GT(report.stats.functions, 500u);
    EXPECT_GT(report.stats.callEdges, 1000u);
    EXPECT_GE(report.stats.roots, 10u);
    EXPECT_GE(report.stats.hot, 5u);
}

TEST(VlintTree, JsonReportIsWellFormed)
{
    vlint::Options opt;
    opt.root = VGUARD_SOURCE_DIR;
    opt.captureGraphJson = true;
    const vlint::Report report = vlint::lintTree(opt);
    const std::string json = vlint::reportJson(report);
    EXPECT_NE(json.find("\"version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"files_scanned\""), std::string::npos);
    EXPECT_NE(json.find("\"counts\""), std::string::npos);
    EXPECT_NE(json.find("\"stats\""), std::string::npos);
    EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
    // Balanced braces as a cheap structural sanity check (full schema
    // validation runs in CI with jq).
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    // --graph-json rides on the same run: present and structurally
    // sane when capture is requested.
    ASSERT_FALSE(report.graphJson.empty());
    EXPECT_NE(report.graphJson.find("\"functions\""),
              std::string::npos);
    EXPECT_EQ(std::count(report.graphJson.begin(),
                         report.graphJson.end(), '{'),
              std::count(report.graphJson.begin(),
                         report.graphJson.end(), '}'));
}
#endif
