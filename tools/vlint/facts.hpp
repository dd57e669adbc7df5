/**
 * @file
 * vlint pass 1: per-file fact extraction for the cross-TU analyzer.
 *
 * The single-file rules in analyzer.cpp answer "is this token bad
 * where it stands?"; the graph rules (graph.hpp) answer "is this token
 * bad given who can reach it?". This header is the interface between
 * the two passes: extractFacts() runs over one lexed file and records
 * everything the linker needs — function definitions with
 * namespace/class-qualified names, call sites inside each body,
 * determinism/allocation hazard sites, mutex acquisition order, and
 * `#include` edges — without resolving anything across files.
 *
 * Structure recovery is the same light token parsing the v1 rules use
 * (no AST): a `{` is classified by the statement head before it, and
 * function names are the identifier run (possibly `A::b` qualified)
 * directly before the parameter list's `(`. That recovers every
 * definition written in the house style; pathological declarators
 * (function pointers returning functions, etc.) degrade to unresolved
 * calls, never to false links.
 */

#ifndef VGUARD_TOOLS_VLINT_FACTS_HPP
#define VGUARD_TOOLS_VLINT_FACTS_HPP

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace vlint {

/** Why a function is interesting to the determinism/hot-path rules. */
enum class HazardKind {
    Wallclock,      ///< steady_clock/system_clock/time()/... read
    Rand,           ///< rand/random_device/mt19937/... use
    UnorderedIter,  ///< iteration over an unordered_{map,set} variable
    Alloc,          ///< new/make_unique/push_back/resize/insert
};

const char *hazardKindName(HazardKind k);

/** One hazard site inside a function body. */
struct HazardFact
{
    HazardKind kind;
    std::string what;  ///< triggering identifier (e.g. "steady_clock")
    int line = 0;
};

/** One call site inside a function body. */
struct CallFact
{
    std::string name;  ///< as spelled: "f", "A::f", "ns::A::f"
    int line = 0;
    bool member = false;  ///< spelled `obj.name(...)` / `p->name(...)`
    /** Mutexes textually held at the call (lock-order propagation). */
    std::vector<std::string> heldLocks;
};

/** One function definition (declaration bodies are not recorded). */
struct FunctionFact
{
    std::string qualName;  ///< enclosing scopes + spelled name
    int line = 0;          ///< line of the name token
    bool hot = false;      ///< annotated `// vlint: hot`
    std::vector<CallFact> calls;
    std::vector<HazardFact> hazards;
};

/** Acquisition-order edge: @p first held while acquiring @p second. */
struct LockEdge
{
    std::string first;
    std::string second;
    int line = 0;          ///< line of the second acquisition
    size_t func = 0;       ///< index into FileFacts::functions
};

/** One quoted `#include "..."` (system includes carry no layering). */
struct IncludeFact
{
    std::string target;  ///< as spelled inside the quotes
    int line = 0;
};

/** Everything pass 1 knows about one file. */
struct FileFacts
{
    std::string file;  ///< lint-root-relative path, '/'-separated
    std::vector<FunctionFact> functions;
    std::vector<LockEdge> lockEdges;
    std::vector<IncludeFact> includes;
    /**
     * Direct (non-transitive) lock acquisitions per function index —
     * the linker's fixpoint seeds when resolving held-lock calls.
     */
    std::map<size_t, std::set<std::string>> directLocks;
    /** line → rules allowed there (`vlint: allow(...)` comments). */
    std::map<int, std::set<std::string>> allows;
};

/** Extract facts from one lexed file. Never fails. */
FileFacts extractFacts(const std::string &relpath, const LexedFile &lf);

/**
 * The one wall-clock policy: the identifiers that read the wall clock
 * and the files allowed to use them (the tracer, src/obs/tracing.*).
 * det-wallclock bans them elsewhere in src/; det-reach traces their
 * use from the deterministic roots.
 */
const std::set<std::string> &wallclockIdents();
bool wallclockWhitelisted(const std::string &relpath);

} // namespace vlint

#endif // VGUARD_TOOLS_VLINT_FACTS_HPP
