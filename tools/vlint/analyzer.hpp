/**
 * @file
 * vlint rule engine: project-invariant checks over the token stream.
 *
 * The value of the vguard reproduction rests on invariants no compiler
 * flag enforces: bit-identical campaign results across --threads
 * counts, replay-vs-full identity, exact FP operation order in the
 * batched kernels, and the per-key once_flag idiom guarding shared
 * caches (DESIGN.md §5). vlint turns those tribal rules into named,
 * machine-checked gates (DESIGN.md §8 is the rule catalogue):
 *
 *   det-rand          banned nondeterminism sources (rand/srand/
 *                     random_device/mt19937/time()/clock()/...)
 *                     anywhere except util/rng.hpp
 *   det-wallclock     wall-clock reads in src/ outside the tracer's
 *                     whitelisted zone (src/obs/tracing.*)
 *   det-unordered     unordered_{map,set} in result-affecting dirs
 *                     (src/core, src/pdn, src/power, src/cpu)
 *   det-ptr-key       pointer-keyed std::map/std::set in those dirs
 *   fp-float          float type/literals in the double-only numeric
 *                     paths (src/linsys, src/pdn, util/simd.hpp)
 *   simd-intrinsic    raw SIMD intrinsics (_mm.., __m256.., NEON
 *                     vaddq..) outside the wrapper util/simd.hpp
 *   fp-pow-int        std::pow(x, <integer literal>) in numeric dirs —
 *                     use multiplication chains for bit-stability
 *   thread-static     function-local mutable `static` without
 *                     once_flag/call_once/atomic/mutex in its
 *                     declaration region
 *   obs-metric-name   metric-name string literals must satisfy the
 *                     same grammar metrics.cpp enforces at runtime
 *   hyg-guard         headers must carry #pragma once or a matching
 *                     #ifndef/#define include guard
 *   hyg-include-order a .cpp with a same-stem sibling header must
 *                     include it first
 *   hyg-using-ns      `using namespace` in a header
 *   hyg-suppression   malformed vlint suppression comment (missing
 *                     rule list or justification)
 *
 * Cross-TU graph rules (facts.hpp extracts per-file facts, graph.hpp
 * links them and runs these; DESIGN.md §8 "Cross-TU analysis"):
 *
 *   det-reach         wall-clock/rand/unordered-iteration hazards
 *                     transitively reachable from deterministic roots
 *                     (full call chain in the diagnostic)
 *   alloc-hot         allocations within --hot-depth calls of a
 *                     `// vlint: hot` annotated function
 *   lock-order        inconsistent mutex/once_flag acquisition-order
 *                     cycles across TUs
 *   layer-dag         include back-edges against util < linsys <
 *                     pdn/power/cpu < obs < core < tools
 *
 * Suppressions: `// vlint: allow(rule[,rule...]) reason` on the
 * offending line, or alone on the line directly above it. The reason
 * is mandatory. A checked-in baseline file grandfathers pre-existing
 * findings by (rule, file, normalized source line) so new code is
 * gated strictly while legacy findings burn down incrementally.
 */

#ifndef VGUARD_TOOLS_VLINT_ANALYZER_HPP
#define VGUARD_TOOLS_VLINT_ANALYZER_HPP

#include <map>
#include <set>
#include <string>
#include <vector>

namespace vlint {

struct Finding
{
    std::string rule;
    std::string file;  ///< path relative to the lint root, '/'-sep
    int line = 0;
    std::string message;
    std::string snippet;  ///< whitespace-normalized source line
};

/** Name → one-line description, for --list-rules and the docs. */
const std::vector<std::pair<std::string, std::string>> &ruleCatalog();

/**
 * Lint one in-memory buffer. @p relpath decides which directory-scoped
 * rules apply. @p treeFiles is the set of known repo-relative paths
 * (for hyg-include-order's sibling-header lookup); pass the real tree
 * or a synthetic one in tests. Suppressed findings are appended to
 * @p suppressedOut when non-null instead of being discarded silently.
 */
std::vector<Finding>
lintSource(const std::string &relpath, const std::string &content,
           const std::set<std::string> &treeFiles = {},
           std::vector<Finding> *suppressedOut = nullptr);

// ---------------------------------------------------------- baseline

/** Stable identity of a finding for baseline matching. */
std::string baselineKey(const Finding &f);

/** Parse a baseline file's contents (one key per line, # comments). */
std::multiset<std::string> parseBaseline(const std::string &text);

/** Render findings as baseline file contents (sorted, commented). */
std::string renderBaseline(const std::vector<Finding> &findings);

// ------------------------------------------------------------ driver

struct Options
{
    std::string root;  ///< repository root to lint
    std::vector<std::string> subdirs = {"src", "bench", "examples",
                                        "tests", "tools"};
    std::string baselinePath;  ///< empty: <root>/tools/vlint/baseline.txt
    int hotDepth = 3;          ///< alloc-hot reachability budget
    bool captureGraphJson = false;  ///< fill Report::graphJson
};

struct Report
{
    std::vector<Finding> findings;     ///< active (fail the run)
    std::vector<Finding> baselined;    ///< matched a baseline entry
    std::vector<Finding> suppressed;   ///< silenced by inline comment
    std::vector<std::string> staleBaseline;  ///< unmatched entries
    int filesScanned = 0;

    /** Analyzer self-diagnostics, printed under "stats" in --json
        (CI asserts wall_seconds stays under its budget). */
    struct Stats
    {
        double wallSeconds = 0.0;
        size_t functions = 0;     ///< defined nodes in the call graph
        size_t externals = 0;     ///< called but not defined in-tree
        size_t callEdges = 0;
        size_t includeEdges = 0;
        size_t lockEdges = 0;
        size_t roots = 0;         ///< deterministic det-reach roots
        size_t hot = 0;           ///< `// vlint: hot` functions
    };
    Stats stats;
    std::string graphJson;  ///< vlint-graph.json (captureGraphJson)
};

/** Lint the tree under @p opt.root; deterministic file order. */
Report lintTree(const Options &opt);

/** Render @p report as the machine-readable JSON document. */
std::string reportJson(const Report &report);

} // namespace vlint

#endif // VGUARD_TOOLS_VLINT_ANALYZER_HPP
