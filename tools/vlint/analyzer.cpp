#include "analyzer.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <tuple>

#include "facts.hpp"
#include "graph.hpp"
#include "lexer.hpp"

namespace vlint {

namespace {

namespace fs = std::filesystem;

// -------------------------------------------------------------- paths

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(),
                     suffix) == 0;
}

bool
isHeader(const std::string &relpath)
{
    return endsWith(relpath, ".hpp") || endsWith(relpath, ".h");
}

bool
isSource(const std::string &relpath)
{
    return endsWith(relpath, ".cpp") || endsWith(relpath, ".cc");
}

std::string
baseName(const std::string &relpath)
{
    const size_t slash = relpath.find_last_of('/');
    return slash == std::string::npos ? relpath
                                      : relpath.substr(slash + 1);
}

/** Directories whose containers/iteration order shape the artifacts. */
bool
inResultDir(const std::string &relpath)
{
    return startsWith(relpath, "src/core/") ||
           startsWith(relpath, "src/pdn/") ||
           startsWith(relpath, "src/power/") ||
           startsWith(relpath, "src/cpu/");
}

/** Double-only numeric paths where float would break bit-stability.
    The SIMD wrapper is included: its packs are double-only too. */
bool
inFpDir(const std::string &relpath)
{
    return startsWith(relpath, "src/linsys/") ||
           startsWith(relpath, "src/pdn/") ||
           relpath == "src/util/simd.hpp";
}

// ----------------------------------------------------------- context

struct FileCtx
{
    const std::string &relpath;
    const LexedFile &lf;
    const std::vector<std::string> &lines;
    const std::set<std::string> &treeFiles;
    std::vector<Finding> findings;

    void
    add(const std::string &rule, int line, std::string message)
    {
        std::string snippet;
        if (line >= 1 && line <= static_cast<int>(lines.size())) {
            // Whitespace-normalize so the snippet (and the baseline
            // key built from it) survives reindentation.
            bool space = false;
            for (char c : lines[line - 1]) {
                if (std::isspace(static_cast<unsigned char>(c))) {
                    space = !snippet.empty();
                    continue;
                }
                if (space)
                    snippet += ' ';
                space = false;
                snippet += c;
            }
        }
        findings.push_back(
            {rule, relpath, line, std::move(message), snippet});
    }
};

const Token *
tokenAt(const FileCtx &ctx, size_t i)
{
    return i < ctx.lf.tokens.size() ? &ctx.lf.tokens[i] : nullptr;
}

bool
isPunct(const Token *t, char c)
{
    return t && t->kind == Tok::Punct && t->text.size() == 1 &&
           t->text[0] == c;
}

bool
isIdent(const Token *t, const char *text)
{
    return t && t->kind == Tok::Ident && t->text == text;
}

// ---------------------------------------------------------- det-rand

void
ruleDetRand(FileCtx &ctx)
{
    // util/rng.hpp is the single sanctioned randomness source: every
    // stochastic component takes an explicit seed through it.
    if (ctx.relpath == "src/util/rng.hpp")
        return;
    static const std::set<std::string> bannedAlways = {
        "rand",         "srand",        "drand48",
        "lrand48",      "srand48",      "random_device",
        "mt19937",      "mt19937_64",   "minstd_rand",
        "minstd_rand0", "random_shuffle",
        "default_random_engine"};
    static const std::set<std::string> bannedCalls = {
        "time",   "clock",  "gettimeofday", "clock_gettime",
        "mktime", "localtime", "gmtime",    "timespec_get"};
    const auto &toks = ctx.lf.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Tok::Ident)
            continue;
        if (bannedAlways.count(toks[i].text)) {
            ctx.add("det-rand", toks[i].line,
                    "'" + toks[i].text +
                        "' is a nondeterminism source; draw from "
                        "util/rng.hpp with an explicit seed");
        } else if (bannedCalls.count(toks[i].text) &&
                   isPunct(tokenAt(ctx, i + 1), '(')) {
            ctx.add("det-rand", toks[i].line,
                    "'" + toks[i].text +
                        "()' reads ambient time/clock state; "
                        "results must not depend on it");
        }
    }
}

// ----------------------------------------------------- det-wallclock

void
ruleDetWallclock(FileCtx &ctx)
{
    // The tracer is the whitelisted wall-clock zone: its values flow
    // only into the machine-dependent --stats-json profile and
    // wall_seconds and the Chrome trace export, never into
    // deterministic artifacts (the canonical form strips timestamps
    // by construction).
    if (!startsWith(ctx.relpath, "src/") ||
        wallclockWhitelisted(ctx.relpath))
        return;
    for (const Token &t : ctx.lf.tokens) {
        if (t.kind == Tok::Ident && wallclockIdents().count(t.text))
            ctx.add("det-wallclock", t.line,
                    "wall-clock read '" + t.text +
                        "' outside src/obs/tracing.*; use "
                        "obs::Tracer::now() / obs::PhaseTimer / "
                        "obs::TraceSpan so timing stays in the tracer");
    }
}

// ----------------------------------------- det-unordered / det-ptr-key

void
ruleDetUnordered(FileCtx &ctx)
{
    if (!inResultDir(ctx.relpath))
        return;
    static const std::set<std::string> unordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    const auto &toks = ctx.lf.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != Tok::Ident)
            continue;
        if (unordered.count(t.text)) {
            ctx.add("det-unordered", t.line,
                    "'" + t.text +
                        "' in a result-affecting directory: "
                        "iteration order is implementation-defined; "
                        "use std::map or a sorted vector");
            continue;
        }
        // std::map< / std::set< with a pointer key type: iteration
        // order follows allocation addresses.
        if ((t.text == "map" || t.text == "set") && i >= 2 &&
            isPunct(tokenAt(ctx, i - 1), ':') &&
            isPunct(tokenAt(ctx, i - 2), ':') &&
            isPunct(tokenAt(ctx, i + 1), '<')) {
            int depth = 1;
            size_t j = i + 2;
            size_t lastTok = 0;
            for (; j < toks.size() && depth > 0; ++j) {
                const Token &u = toks[j];
                if (isPunct(&u, '<'))
                    ++depth;
                else if (isPunct(&u, '>'))
                    --depth;
                else if (isPunct(&u, ',') && depth == 1)
                    break;
                if (depth > 0)
                    lastTok = j;
            }
            if (lastTok && isPunct(tokenAt(ctx, lastTok), '*'))
                ctx.add("det-ptr-key", t.line,
                        "pointer-keyed std::" + t.text +
                            " in a result-affecting directory: "
                            "iteration order follows heap "
                            "addresses; key by a stable id");
        }
    }
}

// ---------------------------------------------------------- fp-float

void
ruleFpFloat(FileCtx &ctx)
{
    if (!inFpDir(ctx.relpath))
        return;
    for (const Token &t : ctx.lf.tokens) {
        if (isIdent(&t, "float")) {
            ctx.add("fp-float", t.line,
                    "'float' in a double-only numeric path: "
                    "mixed precision breaks the <= 1e-12 V golden "
                    "comparisons");
            continue;
        }
        if (t.kind != Tok::Number || t.text.empty())
            continue;
        const char last = t.text.back();
        if (last != 'f' && last != 'F')
            continue;
        const bool hex = startsWith(t.text, "0x") ||
                         startsWith(t.text, "0X");
        const bool floaty =
            hex ? t.text.find_first_of("pP") != std::string::npos
                : t.text.find_first_of(".eE") != std::string::npos;
        if (floaty)
            ctx.add("fp-float", t.line,
                    "float literal '" + t.text +
                        "' in a double-only numeric path");
    }
}

// ---------------------------------------------------- simd-intrinsic

void
ruleSimdIntrinsic(FileCtx &ctx)
{
    // util/simd.hpp is the single sanctioned intrinsics zone: its
    // DoublePack exposes only elementwise IEEE add/mul, which are
    // value-identical across scalar/SSE/AVX/NEON lanes. Raw
    // intrinsics elsewhere could smuggle in FMA, rsqrt approximations
    // or width-dependent reductions that break the bit-identity
    // contract of the batched kernels (DESIGN.md §5).
    if (ctx.relpath == "src/util/simd.hpp")
        return;
    static const std::vector<std::string> prefixes = {
        "_mm",      "__m128",   "__m256", "__m512", "float32x",
        "float64x", "int32x",   "int64x", "vld1",   "vst1",
        "vdupq",    "vaddq",    "vsubq",  "vmulq",  "vfmaq",
        "vfmsq",    "vgetq",    "vsetq"};
    for (const Token &t : ctx.lf.tokens) {
        if (t.kind != Tok::Ident)
            continue;
        for (const std::string &p : prefixes) {
            if (!startsWith(t.text, p))
                continue;
            ctx.add("simd-intrinsic", t.line,
                    "SIMD intrinsic '" + t.text +
                        "' outside src/util/simd.hpp; go through "
                        "simd::DoublePack so every lane stays "
                        "bit-identical to the scalar reference");
            break;
        }
    }
}

// ------------------------------------------------------------ raw-io

void
ruleRawIo(FileCtx &ctx)
{
    // The persistent trace store is the only sanctioned raw-syscall
    // zone: trace_store.cpp owns every mmap/fsync/rename dance
    // (crash-safety and the zero-copy view depend on that exact
    // sequence), and raw descriptors anywhere else bypass the store's
    // corruption handling. `bind`/`open`/`close`/`read`/`write`/
    // `unlink` are deliberately not listed — they collide with
    // ordinary C++ identifiers (std::bind,
    // fstream::open, std::filesystem) — but no socket server or
    // mapping exists without `socket()`/`accept()`/`mmap()`, so the
    // list below still confines any new raw-io code to that TU.
    if (!startsWith(ctx.relpath, "src/") &&
        !startsWith(ctx.relpath, "tools/"))
        return;
    if (ctx.relpath == "src/core/trace_store.cpp")
        return;
    static const std::set<std::string> banned = {
        "mmap",  "munmap",    "msync",    "socket", "listen",
        "accept", "accept4",  "connect",  "fsync",  "ftruncate",
        "futimens", "pread",  "pwrite"};
    const auto &toks = ctx.lf.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Tok::Ident || !banned.count(toks[i].text) ||
            !isPunct(tokenAt(ctx, i + 1), '('))
            continue;
        // Member calls (x.connect(...), p->accept(...)) are someone
        // else's API, not a syscall.
        if (i >= 1 && (isPunct(&toks[i - 1], '.') ||
                       (i >= 2 && isPunct(&toks[i - 1], '>') &&
                        isPunct(&toks[i - 2], '-'))))
            continue;
        // Qualified names: `ns::connect(...)` is a library call, but
        // the global-scope spelling `::connect(...)` is exactly the
        // raw syscall this rule exists to catch.
        if (i >= 2 && isPunct(&toks[i - 1], ':') &&
            isPunct(&toks[i - 2], ':')) {
            const Token *q = i >= 3 ? &toks[i - 3] : nullptr;
            if (q && q->kind == Tok::Ident)
                continue;
        }
        ctx.add("raw-io", toks[i].line,
                "raw I/O syscall '" + toks[i].text +
                    "()' outside src/core/trace_store.cpp; go through "
                    "the trace store");
    }
}

// -------------------------------------------------------- fp-pow-int

void
ruleFpPowInt(FileCtx &ctx)
{
    if (!startsWith(ctx.relpath, "src/"))
        return;
    const auto &toks = ctx.lf.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (!(isIdent(&toks[i], "pow") || isIdent(&toks[i], "powf") ||
              isIdent(&toks[i], "powl")) ||
            !isPunct(tokenAt(ctx, i + 1), '('))
            continue;
        // Scan to the ',' separating the two arguments.
        int depth = 1;
        size_t j = i + 2;
        for (; j < toks.size() && depth > 0; ++j) {
            if (isPunct(&toks[j], '('))
                ++depth;
            else if (isPunct(&toks[j], ')'))
                --depth;
            else if (isPunct(&toks[j], ',') && depth == 1)
                break;
        }
        if (j >= toks.size() || depth != 1)
            continue;
        size_t k = j + 1;  // first token of the exponent
        if (isPunct(tokenAt(ctx, k), '-') ||
            isPunct(tokenAt(ctx, k), '+'))
            ++k;
        const Token *e = tokenAt(ctx, k);
        if (e && e->kind == Tok::Number &&
            e->text.find_first_of(".eEpPfF") == std::string::npos &&
            isPunct(tokenAt(ctx, k + 1), ')'))
            ctx.add("fp-pow-int", toks[i].line,
                    "std::pow with integer exponent '" + e->text +
                        "': libm pow is not required to be exact; "
                        "use an explicit multiplication chain");
    }
}

// ----------------------------------------------------- thread-static

void
ruleThreadStatic(FileCtx &ctx)
{
    if (!startsWith(ctx.relpath, "src/"))
        return;

    enum class Scope { Ns, Type, Code, Other };
    std::vector<Scope> stack;
    const auto &toks = ctx.lf.tokens;

    auto inCode = [&] {
        return !stack.empty() && stack.back() == Scope::Code;
    };

    // Sync vocabulary that legitimizes a mutable function-local
    // static: the object is one, or one guards it nearby.
    auto isSyncIdent = [](const std::string &s) {
        return s == "once_flag" || s == "call_once" || s == "mutex" ||
               s == "shared_mutex" || s == "lock_guard" ||
               s == "unique_lock" || s == "scoped_lock" ||
               startsWith(s, "atomic");
    };

    size_t headStart = 0;  // first token of the current statement head
    for (size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (isPunct(&t, '{')) {
            Scope s = Scope::Other;
            bool sawParen = false, sawType = false, sawNs = false;
            for (size_t h = headStart; h < i; ++h) {
                const Token &u = toks[h];
                if (isPunct(&u, '('))
                    sawParen = true;
                else if (isIdent(&u, "class") ||
                         isIdent(&u, "struct") ||
                         isIdent(&u, "union") || isIdent(&u, "enum"))
                    sawType = true;
                else if (isIdent(&u, "namespace"))
                    sawNs = true;
            }
            const Token *prev = i > headStart ? &toks[i - 1] : nullptr;
            if (sawNs)
                s = Scope::Ns;
            else if (sawType && !sawParen)
                s = Scope::Type;
            else if (inCode())
                s = Scope::Code;
            else if (sawParen || isPunct(prev, ')') ||
                     isPunct(prev, ']') || isIdent(prev, "else") ||
                     isIdent(prev, "do") || isIdent(prev, "try"))
                s = Scope::Code;
            stack.push_back(s);
            headStart = i + 1;
            continue;
        }
        if (isPunct(&t, '}')) {
            if (!stack.empty())
                stack.pop_back();
            headStart = i + 1;
            continue;
        }
        if (isPunct(&t, ';')) {
            headStart = i + 1;
            continue;
        }

        if (!isIdent(&t, "static") || !inCode())
            continue;

        // Collect the declaration up to '=' , '{' or ';'.
        std::vector<const Token *> decl;
        size_t j = i + 1;
        int angle = 0;
        for (; j < toks.size(); ++j) {
            const Token &u = toks[j];
            if (isPunct(&u, '<'))
                ++angle;
            else if (isPunct(&u, '>'))
                --angle;
            else if (angle == 0 &&
                     (isPunct(&u, ';') || isPunct(&u, '=') ||
                      isPunct(&u, '{')))
                break;
            decl.push_back(&u);
        }

        bool constQualified = false, isSync = false;
        size_t lastStar = std::string::npos;
        for (size_t d = 0; d < decl.size(); ++d) {
            if (isPunct(decl[d], '*'))
                lastStar = d;
            if (decl[d]->kind == Tok::Ident &&
                isSyncIdent(decl[d]->text))
                isSync = true;
            if (isIdent(decl[d], "constexpr") ||
                isIdent(decl[d], "constinit"))
                constQualified = true;
        }
        if (!constQualified) {
            // `const` makes the object immutable only when it
            // qualifies the declarator itself: for pointers that
            // means appearing AFTER the last '*' (`*const`);
            // `static const char *p` leaves p mutable.
            for (size_t d = 0; d < decl.size(); ++d)
                if (isIdent(decl[d], "const") &&
                    (lastStar == std::string::npos || d > lastStar))
                    constQualified = true;
        }

        if (!constQualified && !isSync) {
            // Declaration region: a sync primitive within +-4 lines
            // (the experiments.cpp mutex-plus-map idiom).
            const int line = t.line;
            for (const Token &u : toks) {
                if (u.kind == Tok::Ident && isSyncIdent(u.text) &&
                    u.line >= line - 4 && u.line <= line + 4) {
                    isSync = true;
                    break;
                }
            }
        }

        if (!constQualified && !isSync) {
            std::string name = "static";
            for (auto it = decl.rbegin(); it != decl.rend(); ++it) {
                if ((*it)->kind == Tok::Ident) {
                    name = (*it)->text;
                    break;
                }
            }
            ctx.add("thread-static", t.line,
                    "function-local mutable static '" + name +
                        "' has no once_flag/atomic/mutex in its "
                        "declaration region; the campaign engine "
                        "calls this code from worker threads");
        }
        // Resume AT the terminator, not past it: if the declaration
        // ended in '{' (a brace initializer), the main loop must see
        // that brace and push/pop it, or the scope stack drifts and
        // every later brace in the file is mispaired — which is
        // exactly how statics after a lambda argument were masked.
        i = j == 0 ? 0 : j - 1;
    }
}

// --------------------------------------------------- obs-metric-name

void
ruleMetricName(FileCtx &ctx)
{
    if (!startsWith(ctx.relpath, "src/"))
        return;
    // The Snapshot adders, and the core's local counter helper that
    // forwards its literal fragment to them.
    static const std::set<std::string> registrars = {
        "addCounter", "addGauge", "counter"};
    const auto &toks = ctx.lf.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].kind != Tok::Ident ||
            !registrars.count(toks[i].text) ||
            !isPunct(tokenAt(ctx, i + 1), '(') ||
            toks[i + 2].kind != Tok::Str)
            continue;
        const std::string &name = toks[i + 2].text;
        // Same grammar the Snapshot adders enforce at runtime:
        // [a-z0-9_] segments separated by single dots. A literal may
        // be a fragment appended to a prefix, so it must merely be a
        // valid dotted path on its own.
        bool ok = !name.empty() && name.front() != '.' &&
                  name.back() != '.';
        bool prevDot = false;
        for (char c : name) {
            const bool valid = (c >= 'a' && c <= 'z') ||
                               (c >= '0' && c <= '9') || c == '_' ||
                               c == '.';
            if (!valid || (c == '.' && prevDot)) {
                ok = false;
                break;
            }
            prevDot = c == '.';
        }
        if (!ok)
            ctx.add("obs-metric-name", toks[i + 2].line,
                    "metric name literal \"" + name +
                        "\" violates the stats-name grammar "
                        "(lowercase [a-z0-9_] segments joined "
                        "with single dots)");
    }
}

// --------------------------------------------------------- hyg-guard

void
ruleHygGuard(FileCtx &ctx)
{
    if (!isHeader(ctx.relpath))
        return;
    std::string guard;
    for (const Directive &d : ctx.lf.directives) {
        // Normalize "#  kw arg" / "# kw arg" to (kw, arg).
        size_t p = d.text.find('#');
        if (p == std::string::npos)
            continue;
        std::istringstream in(d.text.substr(p + 1));
        std::string kw, arg;
        in >> kw >> arg;
        if (kw == "pragma" && arg == "once")
            return;
        if (kw == "ifndef" && guard.empty())
            guard = arg;
        else if (kw == "define" && !guard.empty() && arg == guard)
            return;
    }
    ctx.add("hyg-guard", 1,
            "header lacks an include guard (#pragma once or a "
            "matching #ifndef/#define pair)");
}

// ------------------------------------------------- hyg-include-order

void
ruleHygIncludeOrder(FileCtx &ctx)
{
    if (!isSource(ctx.relpath))
        return;
    const std::string base = baseName(ctx.relpath);
    const std::string stem = base.substr(0, base.find_last_of('.'));
    const std::string dir =
        ctx.relpath.substr(0, ctx.relpath.size() - base.size());
    const std::string sibling = dir + stem + ".hpp";
    if (!ctx.treeFiles.count(sibling))
        return;
    for (const Directive &d : ctx.lf.directives) {
        if (!startsWith(d.text, "#include"))
            continue;
        const size_t open = d.text.find_first_of("\"<");
        const size_t close = d.text.find_first_of("\">", open + 1);
        std::string inc = open != std::string::npos &&
                                  close != std::string::npos
                              ? d.text.substr(open + 1,
                                              close - open - 1)
                              : "";
        if (baseName(inc) != stem + ".hpp")
            ctx.add("hyg-include-order", d.line,
                    "own header " + stem +
                        ".hpp must be the first include (catches "
                        "headers that do not stand alone)");
        return;
    }
    ctx.add("hyg-include-order", 1,
            "translation unit never includes its own header " + stem +
                ".hpp");
}

// ---------------------------------------------------- hyg-using-ns

void
ruleHygUsingNs(FileCtx &ctx)
{
    if (!isHeader(ctx.relpath))
        return;
    const auto &toks = ctx.lf.tokens;
    for (size_t i = 0; i + 1 < toks.size(); ++i)
        if (isIdent(&toks[i], "using") &&
            isIdent(&toks[i + 1], "namespace"))
            ctx.add("hyg-using-ns", toks[i].line,
                    "'using namespace' in a header leaks into every "
                    "includer");
}

// ------------------------------------------------------ suppressions

struct Suppression
{
    std::set<std::string> rules;
    bool used = false;
};

/**
 * Parse `vlint: allow(rule[,rule...]) reason` comments into a
 * line → suppression map. A comment on its own line covers the next
 * line; otherwise it covers its own. Malformed suppressions (no rule
 * list, or no justification) become hyg-suppression findings.
 */
std::map<int, Suppression>
parseSuppressions(FileCtx &ctx)
{
    std::map<int, Suppression> out;
    for (const Comment &c : ctx.lf.comments) {
        const size_t tag = c.text.find("vlint:");
        if (tag == std::string::npos)
            continue;
        // `vlint: hot` is the alloc-hot seed annotation, consumed by
        // the cross-TU fact extractor (facts.cpp) — not a suppression
        // and not malformed.
        {
            size_t k = tag + 6;
            while (k < c.text.size() &&
                   std::isspace(static_cast<unsigned char>(c.text[k])))
                ++k;
            if (c.text.compare(k, 3, "hot") == 0 &&
                (k + 3 == c.text.size() ||
                 !std::isalnum(
                     static_cast<unsigned char>(c.text[k + 3]))))
                continue;
        }
        const size_t open = c.text.find("allow(", tag);
        const size_t close = open == std::string::npos
                                 ? std::string::npos
                                 : c.text.find(')', open);
        if (close == std::string::npos) {
            ctx.add("hyg-suppression", c.line,
                    "malformed vlint comment: expected "
                    "'vlint: allow(rule) reason'");
            continue;
        }
        std::set<std::string> rules;
        std::string cur;
        for (size_t i = open + 6; i <= close; ++i) {
            const char ch = c.text[i];
            if (ch == ',' || ch == ')') {
                if (!cur.empty())
                    rules.insert(cur);
                cur.clear();
            } else if (!std::isspace(static_cast<unsigned char>(ch))) {
                cur += ch;
            }
        }
        std::string reason = c.text.substr(close + 1);
        const size_t ns = reason.find_first_not_of(" \t");
        reason = ns == std::string::npos ? "" : reason.substr(ns);
        if (rules.empty() || reason.empty()) {
            ctx.add("hyg-suppression", c.line,
                    "vlint suppression needs a rule list and a "
                    "written justification");
            continue;
        }
        const int target = c.ownLine ? c.line + 1 : c.line;
        out[target].rules.insert(rules.begin(), rules.end());
    }
    return out;
}

} // namespace

// ------------------------------------------------------------ public

const std::vector<std::pair<std::string, std::string>> &
ruleCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> cat =
        {
            {"det-rand",
             "rand/srand/random_device/mt19937/time()/clock() outside "
             "util/rng.hpp"},
            {"det-wallclock",
             "wall-clock reads in src/ outside src/obs/tracing.*"},
            {"det-unordered",
             "unordered containers in src/{core,pdn,power,cpu}"},
            {"det-ptr-key",
             "pointer-keyed std::map/std::set in result-affecting "
             "directories"},
            {"fp-float",
             "float types/literals in src/{linsys,pdn} double paths"},
            {"simd-intrinsic",
             "raw SIMD intrinsics outside src/util/simd.hpp"},
            {"raw-io",
             "raw mmap/socket/descriptor syscalls outside "
             "src/core/trace_store.cpp"},
            {"fp-pow-int",
             "std::pow with an integer-literal exponent in src/"},
            {"thread-static",
             "function-local mutable static without once_flag/atomic/"
             "mutex nearby"},
            {"obs-metric-name",
             "metric-name literals must match the stats-name "
             "grammar"},
            {"hyg-guard", "headers must carry an include guard"},
            {"hyg-include-order",
             ".cpp with a same-stem header must include it first"},
            {"hyg-using-ns", "'using namespace' in a header"},
            {"hyg-suppression",
             "vlint suppression comments need a rule and a reason"},
            {"det-reach",
             "wall-clock/rand/unordered-iteration reachable from "
             "deterministic roots (full call chain in diagnostic)"},
            {"alloc-hot",
             "allocation reachable within --hot-depth of a "
             "'// vlint: hot' function"},
            {"lock-order",
             "inconsistent mutex/once_flag acquisition-order cycle "
             "across TUs"},
            {"layer-dag",
             "include back-edge against util < linsys < pdn/power/cpu "
             "< obs < core < tools layering"},
        };
    return cat;
}

std::vector<Finding>
lintSource(const std::string &relpath, const std::string &content,
           const std::set<std::string> &treeFiles,
           std::vector<Finding> *suppressedOut)
{
    const LexedFile lf = lex(content);
    std::vector<std::string> lines;
    {
        std::string cur;
        for (char c : content) {
            if (c == '\n') {
                lines.push_back(cur);
                cur.clear();
            } else {
                cur += c;
            }
        }
        if (!cur.empty())
            lines.push_back(cur);
    }

    FileCtx ctx{relpath, lf, lines, treeFiles, {}};
    ruleDetRand(ctx);
    ruleDetWallclock(ctx);
    ruleDetUnordered(ctx);
    ruleFpFloat(ctx);
    ruleSimdIntrinsic(ctx);
    ruleRawIo(ctx);
    ruleFpPowInt(ctx);
    ruleThreadStatic(ctx);
    ruleMetricName(ctx);
    ruleHygGuard(ctx);
    ruleHygIncludeOrder(ctx);
    ruleHygUsingNs(ctx);

    std::vector<Finding> preSuppression = std::move(ctx.findings);
    ctx.findings.clear();
    auto supp = parseSuppressions(ctx);  // may add hyg-suppression

    std::vector<Finding> active = std::move(ctx.findings);
    for (Finding &f : preSuppression) {
        const auto it = supp.find(f.line);
        if (it != supp.end() && (it->second.rules.count(f.rule) ||
                                 it->second.rules.count("*"))) {
            if (suppressedOut)
                suppressedOut->push_back(std::move(f));
            continue;
        }
        active.push_back(std::move(f));
    }
    std::sort(active.begin(), active.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.line, a.rule) <
                         std::tie(b.line, b.rule);
              });
    return active;
}

// ---------------------------------------------------------- baseline

std::string
baselineKey(const Finding &f)
{
    return f.rule + "|" + f.file + "|" + f.snippet;
}

std::multiset<std::string>
parseBaseline(const std::string &text)
{
    std::multiset<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        out.insert(line);
    }
    return out;
}

std::string
renderBaseline(const std::vector<Finding> &findings)
{
    std::vector<std::string> keys;
    keys.reserve(findings.size());
    for (const Finding &f : findings)
        keys.push_back(baselineKey(f));
    std::sort(keys.begin(), keys.end());
    std::string out =
        "# vlint baseline: grandfathered findings, one per line as\n"
        "# rule|path|normalized-source-line. Regenerate with\n"
        "#   vlint --root . --write-baseline\n"
        "# Entries are deleted as the findings they match are fixed;\n"
        "# stale entries are reported so the file only shrinks.\n";
    for (const std::string &k : keys) {
        out += k;
        out += '\n';
    }
    return out;
}

// ------------------------------------------------------------ driver

namespace {

/** Whitespace-normalize one source line (baseline-key stability). */
std::string
normalizeSnippet(const std::string &raw)
{
    std::string snippet;
    bool space = false;
    for (char c : raw) {
        if (std::isspace(static_cast<unsigned char>(c))) {
            space = !snippet.empty();
            continue;
        }
        if (space)
            snippet += ' ';
        space = false;
        snippet += c;
    }
    return snippet;
}

} // namespace

Report
lintTree(const Options &opt)
{
    const auto wallStart = std::chrono::steady_clock::now();
    Report report;
    const fs::path root(opt.root);

    std::vector<std::string> files;
    for (const std::string &sub : opt.subdirs) {
        const fs::path dir = root / sub;
        if (!fs::exists(dir))
            continue;
        for (const auto &e : fs::recursive_directory_iterator(dir)) {
            if (!e.is_regular_file())
                continue;
            std::string rel =
                fs::relative(e.path(), root).generic_string();
            if (isHeader(rel) || isSource(rel))
                files.push_back(std::move(rel));
        }
    }
    std::sort(files.begin(), files.end());
    const std::set<std::string> treeFiles(files.begin(), files.end());

    std::vector<Finding> all;
    std::vector<FileFacts> facts;
    std::map<std::string, std::vector<std::string>> fileLines;
    facts.reserve(files.size());
    for (const std::string &rel : files) {
        std::ifstream in(root / rel, std::ios::binary);
        if (!in)
            continue;
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string content = buf.str();
        ++report.filesScanned;
        auto found = lintSource(rel, content, treeFiles,
                                &report.suppressed);
        all.insert(all.end(),
                   std::make_move_iterator(found.begin()),
                   std::make_move_iterator(found.end()));

        // Pass 1 of the cross-TU analysis rides the same walk.
        facts.push_back(extractFacts(rel, lex(content)));
        auto &lines = fileLines[rel];
        std::string cur;
        for (char c : content) {
            if (c == '\n') {
                lines.push_back(cur);
                cur.clear();
            } else {
                cur += c;
            }
        }
        if (!cur.empty())
            lines.push_back(cur);
    }

    // Pass 2: link all facts, run the graph rules, then route the
    // findings through the same suppression machinery the single-file
    // rules use (the allow-maps were collected during extraction).
    const CallGraph graph = linkFacts(facts, treeFiles);
    std::map<std::string, const FileFacts *> factsByFile;
    for (const FileFacts &ff : facts)
        factsByFile.emplace(ff.file, &ff);
    std::vector<Finding> graphFindings =
        runGraphRules(graph, opt.hotDepth);
    std::sort(graphFindings.begin(), graphFindings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.rule, a.message) <
                         std::tie(b.file, b.line, b.rule, b.message);
              });
    for (Finding &f : graphFindings) {
        const auto lit = fileLines.find(f.file);
        if (lit != fileLines.end() && f.line >= 1 &&
            f.line <= static_cast<int>(lit->second.size()))
            f.snippet = normalizeSnippet(lit->second[f.line - 1]);
        const auto fit = factsByFile.find(f.file);
        if (fit != factsByFile.end()) {
            const auto ait = fit->second->allows.find(f.line);
            if (ait != fit->second->allows.end() &&
                (ait->second.count(f.rule) ||
                 ait->second.count("*"))) {
                report.suppressed.push_back(std::move(f));
                continue;
            }
        }
        all.push_back(std::move(f));
    }

    report.stats.functions = graph.nDefined;
    report.stats.externals = graph.nExternal;
    report.stats.callEdges = graph.nCallEdges;
    report.stats.includeEdges = graph.includes.size();
    report.stats.lockEdges = graph.lockEdges.size();
    report.stats.roots = graph.nRoots;
    report.stats.hot = graph.nHot;
    if (opt.captureGraphJson)
        report.graphJson = graphJson(graph);

    const fs::path basePath =
        opt.baselinePath.empty()
            ? root / "tools" / "vlint" / "baseline.txt"
            : fs::path(opt.baselinePath);
    std::multiset<std::string> baseline;
    if (fs::exists(basePath)) {
        std::ifstream in(basePath, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        baseline = parseBaseline(buf.str());
    }
    for (Finding &f : all) {
        const auto it = baseline.find(baselineKey(f));
        if (it != baseline.end()) {
            baseline.erase(it);
            report.baselined.push_back(std::move(f));
        } else {
            report.findings.push_back(std::move(f));
        }
    }
    report.staleBaseline.assign(baseline.begin(), baseline.end());
    report.stats.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();
    return report;
}

// -------------------------------------------------------------- json

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
appendFindings(std::string &out, const char *key,
               const std::vector<Finding> &v)
{
    out += "  \"";
    out += key;
    out += "\": [";
    for (size_t i = 0; i < v.size(); ++i) {
        const Finding &f = v[i];
        out += i ? ",\n    " : "\n    ";
        out += "{\"rule\": \"" + jsonEscape(f.rule) +
               "\", \"file\": \"" + jsonEscape(f.file) +
               "\", \"line\": " + std::to_string(f.line) +
               ", \"message\": \"" + jsonEscape(f.message) +
               "\", \"snippet\": \"" + jsonEscape(f.snippet) + "\"}";
    }
    out += v.empty() ? "]" : "\n  ]";
}

} // namespace

std::string
reportJson(const Report &report)
{
    std::string out = "{\n  \"version\": 1,\n";
    out += "  \"files_scanned\": " +
           std::to_string(report.filesScanned) + ",\n";
    out += "  \"counts\": {\"active\": " +
           std::to_string(report.findings.size()) +
           ", \"baselined\": " +
           std::to_string(report.baselined.size()) +
           ", \"suppressed\": " +
           std::to_string(report.suppressed.size()) +
           ", \"stale_baseline\": " +
           std::to_string(report.staleBaseline.size()) + "},\n";
    {
        char ws[32];
        std::snprintf(ws, sizeof(ws), "%.3f",
                      report.stats.wallSeconds);
        out += "  \"stats\": {\"wall_seconds\": ";
        out += ws;
        out += ", \"functions\": " +
               std::to_string(report.stats.functions) +
               ", \"externals\": " +
               std::to_string(report.stats.externals) +
               ", \"call_edges\": " +
               std::to_string(report.stats.callEdges) +
               ", \"include_edges\": " +
               std::to_string(report.stats.includeEdges) +
               ", \"lock_edges\": " +
               std::to_string(report.stats.lockEdges) +
               ", \"roots\": " + std::to_string(report.stats.roots) +
               ", \"hot\": " + std::to_string(report.stats.hot) +
               "},\n";
    }
    appendFindings(out, "findings", report.findings);
    out += ",\n";
    appendFindings(out, "baselined", report.baselined);
    out += ",\n";
    appendFindings(out, "suppressed", report.suppressed);
    out += ",\n  \"stale_baseline\": [";
    for (size_t i = 0; i < report.staleBaseline.size(); ++i) {
        if (i)
            out += ", ";
        out += '"';
        out += jsonEscape(report.staleBaseline[i]);
        out += '"';
    }
    out += "]\n}\n";
    return out;
}

} // namespace vlint
