/**
 * @file
 * vlint pass 2: cross-TU linking and the graph rules.
 *
 * linkFacts() merges every file's pass-1 facts (facts.hpp) into one
 * call graph and include DAG. Call resolution is name-based with
 * overload collapsing: all definitions sharing a qualified name are
 * one node; an unqualified or suffix-qualified call links to every
 * definition whose qualified name ends in the spelled name *and* whose
 * file sits at or below the caller's layer (so src code never links
 * into same-named helpers in tests/bench). A call that matches nothing
 * becomes an explicit external node — recorded, never guessed at.
 *
 * Graph rules (DESIGN.md §8):
 *
 *   det-reach   wall-clock/rand/unordered-iteration hazards reachable
 *               from the deterministic roots (CampaignEngine::run,
 *               PdnBackend step entry points, TraceCache/TraceStore);
 *               diagnostics carry the full root → hazard call chain.
 *   alloc-hot   allocations within --hot-depth calls of a function
 *               annotated `// vlint: hot`.
 *   lock-order  inconsistent mutex/once_flag acquisition-order cycles,
 *               including locks acquired by callees while a caller
 *               holds another lock.
 *   layer-dag   include edges against the layering
 *               util < linsys/isa < pdn/power/cpu/workloads < obs <
 *               core < tools/bench/examples/tests.
 */

#ifndef VGUARD_TOOLS_VLINT_GRAPH_HPP
#define VGUARD_TOOLS_VLINT_GRAPH_HPP

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer.hpp"
#include "facts.hpp"

namespace vlint {

/** Layer rank of a repo-relative path (higher may include lower). */
int layerRank(const std::string &relpath);

struct CallGraph
{
    struct Node
    {
        std::string qualName;
        std::string file;  ///< defining file ("" for externals)
        int line = 0;
        bool external = false;  ///< called but never defined in-tree
        bool hot = false;       ///< `// vlint: hot` annotated
        bool root = false;      ///< deterministic root (det-reach)
        std::vector<HazardFact> hazards;
        /** Resolved callees (deduplicated, ascending node index). */
        std::vector<size_t> callees;
        /** callee node → line of the first call site. */
        std::map<size_t, int> callLines;
    };

    struct IncludeEdge
    {
        std::string from;    ///< includer, repo-relative
        std::string to;      ///< resolved include target
        int line = 0;
        int fromRank = 0;
        int toRank = 0;
    };

    struct LockOrderEdge
    {
        std::string first;   ///< held
        std::string second;  ///< acquired while holding @c first
        std::string file;    ///< witness site
        int line = 0;
        bool transitive = false;  ///< via a call, not a direct block
    };

    std::vector<Node> nodes;
    std::map<std::string, size_t> byName;  ///< defined nodes only
    std::vector<IncludeEdge> includes;
    std::vector<LockOrderEdge> lockEdges;

    size_t nDefined = 0;
    size_t nExternal = 0;
    size_t nCallEdges = 0;
    size_t nRoots = 0;
    size_t nHot = 0;
};

/**
 * Link per-file facts into one graph. @p treeFiles is the set of
 * walked repo-relative paths, used to resolve include spellings
 * (`"core/campaign.hpp"` → `src/core/campaign.hpp`).
 */
CallGraph linkFacts(const std::vector<FileFacts> &files,
                    const std::set<std::string> &treeFiles);

/**
 * Run det-reach / alloc-hot / lock-order / layer-dag over a linked
 * graph. @p hotDepth is the alloc-hot reachability budget in call
 * edges (seed itself = depth 0). Findings carry no snippet — the
 * driver fills it from file contents before suppression/baseline
 * matching.
 */
std::vector<Finding> runGraphRules(const CallGraph &g, int hotDepth);

/** Serialize the graph as the vlint-graph.json document. */
std::string graphJson(const CallGraph &g);

} // namespace vlint

#endif // VGUARD_TOOLS_VLINT_GRAPH_HPP
