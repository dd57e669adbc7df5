/**
 * @file
 * Pass-1 fact extraction (see facts.hpp). One walk over the token
 * stream with a classified scope stack recovers function bodies; the
 * same walk records calls, hazards and lock acquisitions as it crosses
 * them, so extraction stays O(tokens) per file.
 */

#include "facts.hpp"

#include <algorithm>
#include <cctype>

namespace vlint {

namespace {

bool
startsWith(const std::string &s, const std::string &p)
{
    return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}

bool
isPunct(const Token *t, char c)
{
    return t && t->kind == Tok::Punct && t->text.size() == 1 &&
           t->text[0] == c;
}

bool
isIdent(const Token *t, const char *s)
{
    return t && t->kind == Tok::Ident && t->text == s;
}

const std::set<std::string> &
controlKeywords()
{
    static const std::set<std::string> kw = {
        "if",     "for",    "while",  "switch", "catch",  "return",
        "sizeof", "alignof", "decltype", "throw", "new",  "delete",
        "co_await", "co_return", "co_yield", "defined", "assert",
        "static_assert", "noexcept", "alignas", "typeid"};
    return kw;
}

/** Keywords that legally precede a call expression: an identifier
    after one of these starts a call, not a declarator. */
const std::set<std::string> &
statementKeywords()
{
    static const std::set<std::string> kw = {
        "return", "throw", "else", "do", "case", "goto",
        "co_return", "co_await", "co_yield"};
    return kw;
}

/** Random sources that are hazardous on sight (type names). */
const std::set<std::string> &
randTypeIdents()
{
    static const std::set<std::string> s = {
        "random_device", "mt19937", "mt19937_64", "minstd_rand",
        "default_random_engine", "ranlux24", "ranlux48"};
    return s;
}

/** Allocation calls (member or free) the alloc-hot rule cares about. */
const std::set<std::string> &
allocIdents()
{
    static const std::set<std::string> s = {
        "make_unique", "make_shared", "push_back", "emplace_back",
        "resize", "insert", "emplace"};
    return s;
}

/** The RNG wrapper is the one sanctioned randomness zone. */
bool
randWhitelisted(const std::string &relpath)
{
    return relpath == "src/util/rng.hpp";
}

struct Frame
{
    enum Kind { Ns, Type, Func, Plain } kind = Plain;
    std::string name;       ///< Ns/Type: scope component ("" = anon)
    size_t funcIdx = SIZE_MAX;  ///< innermost function, if any
    size_t heldMark = 0;    ///< held-lock stack size at entry
};

/**
 * Join the spelling of an expression's tokens for lock identity:
 * identifiers and `.`/`->`/`::` connectors are kept, `[...]` contents
 * collapse to `[]` so `queues[self].m` and `queues[other].m` unify.
 */
std::string
spellExpr(const std::vector<Token> &toks, size_t begin, size_t end)
{
    std::string out;
    int bracket = 0;
    for (size_t i = begin; i < end; ++i) {
        const Token &t = toks[i];
        if (isPunct(&t, '[')) {
            if (bracket++ == 0)
                out += "[]";
            continue;
        }
        if (isPunct(&t, ']')) {
            if (bracket > 0)
                --bracket;
            continue;
        }
        if (bracket > 0)
            continue;
        if (t.kind == Tok::Ident || t.kind == Tok::Number)
            out += t.text;
        else if (t.kind == Tok::Punct &&
                 (t.text == "." || t.text == ":" || t.text == "-" ||
                  t.text == ">" || t.text == "&" || t.text == "*"))
            out += t.text;
    }
    // Strip explicit this-> and leading address-of/deref decoration.
    while (!out.empty() && (out[0] == '&' || out[0] == '*'))
        out.erase(out.begin());
    if (startsWith(out, "this->"))
        out.erase(0, 6);
    return out;
}

struct Extractor
{
    const std::string &relpath;
    const LexedFile &lf;
    FileFacts facts;

    std::vector<Frame> stack;
    size_t headStart = 0;

    /** (spelling-qualified mutex, acquisition line). */
    std::vector<std::pair<std::string, int>> held;

    std::set<std::string> unorderedVars;
    std::vector<int> hotLines;

    Extractor(const std::string &rp, const LexedFile &l)
        : relpath(rp), lf(l)
    {
        facts.file = rp;
    }

    const Token *
    at(size_t i) const
    {
        return i < lf.tokens.size() ? &lf.tokens[i] : nullptr;
    }

    size_t
    curFunc() const
    {
        for (auto it = stack.rbegin(); it != stack.rend(); ++it)
            if (it->funcIdx != SIZE_MAX)
                return it->funcIdx;
        return SIZE_MAX;
    }

    bool
    inFuncBody() const
    {
        return curFunc() != SIZE_MAX;
    }

    /** Scope-name chain of every named Ns/Type frame. */
    std::string
    scopeChain() const
    {
        std::string out;
        for (const Frame &f : stack) {
            if ((f.kind != Frame::Ns && f.kind != Frame::Type) ||
                f.name.empty())
                continue;
            if (!out.empty())
                out += "::";
            out += f.name;
        }
        return out;
    }

    bool
    parentIsType() const
    {
        for (auto it = stack.rbegin(); it != stack.rend(); ++it)
            if (it->kind == Frame::Type)
                return true;
        return false;
    }

    // ---------------------------------------------------- annotations

    void
    collectComments()
    {
        for (const Comment &c : lf.comments) {
            const size_t tag = c.text.find("vlint:");
            if (tag == std::string::npos)
                continue;
            size_t k = tag + 6;
            while (k < c.text.size() &&
                   std::isspace(static_cast<unsigned char>(c.text[k])))
                ++k;
            if (c.text.compare(k, 3, "hot") == 0 &&
                (k + 3 == c.text.size() ||
                 !std::isalnum(
                     static_cast<unsigned char>(c.text[k + 3])))) {
                hotLines.push_back(c.line);
                continue;
            }
            const size_t open = c.text.find("allow(", tag);
            const size_t close = open == std::string::npos
                                     ? std::string::npos
                                     : c.text.find(')', open);
            if (close == std::string::npos)
                continue;
            std::set<std::string> rules;
            std::string cur;
            for (size_t i = open + 6; i <= close; ++i) {
                const char ch = c.text[i];
                if (ch == ',' || ch == ')') {
                    if (!cur.empty())
                        rules.insert(cur);
                    cur.clear();
                } else if (!std::isspace(
                               static_cast<unsigned char>(ch))) {
                    cur += ch;
                }
            }
            if (rules.empty())
                continue;
            const int target = c.ownLine ? c.line + 1 : c.line;
            facts.allows[target].insert(rules.begin(), rules.end());
        }
    }

    /** Each hot annotation marks the first definition that follows
        it (within a 6-line window for multi-line signatures), then is
        spent — otherwise one annotation would bleed onto every short
        function packed below it. */
    bool
    consumeHotLine(int funcLine)
    {
        for (auto it = hotLines.begin(); it != hotLines.end(); ++it) {
            if (funcLine - *it >= 0 && funcLine - *it <= 6) {
                hotLines.erase(it);
                return true;
            }
        }
        return false;
    }

    // ------------------------------------------------- unordered vars

    /** Prepass: names declared with an unordered_* container type. */
    void
    collectUnorderedVars()
    {
        const auto &toks = lf.tokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].kind != Tok::Ident ||
                !startsWith(toks[i].text, "unordered_"))
                continue;
            size_t j = i + 1;
            if (isPunct(at(j), '<')) {
                int angle = 1;
                for (++j; j < toks.size() && angle > 0; ++j) {
                    if (isPunct(&toks[j], '<'))
                        ++angle;
                    else if (isPunct(&toks[j], '>'))
                        --angle;
                }
            }
            // Skip refs/ptrs between the type and the declarator name.
            while (j < toks.size() &&
                   (isPunct(at(j), '&') || isPunct(at(j), '*') ||
                    isIdent(at(j), "const")))
                ++j;
            if (j < toks.size() && toks[j].kind == Tok::Ident)
                unorderedVars.insert(toks[j].text);
        }
    }

    // ----------------------------------------------------- head parse

    struct HeadInfo
    {
        bool hasNamespace = false;
        bool hasTypeKw = false;
        bool hasParen = false;       ///< '(' at paren-depth 0
        bool hasTopAssign = false;   ///< '=' outside any parens
        bool controlStart = false;
        size_t firstParen = SIZE_MAX;
    };

    HeadInfo
    scanHead(size_t begin, size_t end) const
    {
        HeadInfo h;
        const auto &toks = lf.tokens;
        int paren = 0;
        for (size_t i = begin; i < end; ++i) {
            const Token &t = toks[i];
            if (isPunct(&t, '(')) {
                if (paren == 0 && h.firstParen == SIZE_MAX) {
                    h.firstParen = i;
                    h.hasParen = true;
                }
                ++paren;
            } else if (isPunct(&t, ')')) {
                if (paren > 0)
                    --paren;
            } else if (paren == 0 && isPunct(&t, '=')) {
                h.hasTopAssign = true;
            } else if (isIdent(&t, "namespace")) {
                h.hasNamespace = true;
            } else if (isIdent(&t, "class") || isIdent(&t, "struct") ||
                       isIdent(&t, "union") || isIdent(&t, "enum")) {
                h.hasTypeKw = true;
            }
            if (i == begin &&
                (isIdent(&t, "if") || isIdent(&t, "for") ||
                 isIdent(&t, "while") || isIdent(&t, "switch") ||
                 isIdent(&t, "catch") || isIdent(&t, "do") ||
                 isIdent(&t, "else") || isIdent(&t, "try")))
                h.controlStart = true;
        }
        return h;
    }

    /** Namespace component after the `namespace` keyword. */
    std::string
    namespaceName(size_t begin, size_t end) const
    {
        const auto &toks = lf.tokens;
        for (size_t i = begin; i < end; ++i) {
            if (!isIdent(&toks[i], "namespace"))
                continue;
            std::string name;
            for (size_t j = i + 1; j < end; ++j) {
                if (toks[j].kind == Tok::Ident)
                    name += toks[j].text;
                else if (isPunct(&toks[j], ':'))
                    name += ':';
                else
                    break;
            }
            return name;
        }
        return {};
    }

    /** Tag name after class/struct/union/enum (skips `enum class`). */
    std::string
    typeName(size_t begin, size_t end) const
    {
        const auto &toks = lf.tokens;
        for (size_t i = begin; i < end; ++i) {
            if (!(isIdent(&toks[i], "class") ||
                  isIdent(&toks[i], "struct") ||
                  isIdent(&toks[i], "union") ||
                  isIdent(&toks[i], "enum")))
                continue;
            for (size_t j = i + 1; j < end; ++j) {
                const Token &t = toks[j];
                if (isIdent(&t, "class") || isIdent(&t, "struct") ||
                    isIdent(&t, "final") || isIdent(&t, "alignas"))
                    continue;
                if (t.kind == Tok::Ident)
                    return t.text;
                break;
            }
            return {};
        }
        return {};
    }

    /**
     * Function name directly before the parameter `(` at @p paren:
     * an `Ident (:: Ident)*` chain read backwards, with `~` and
     * `operator<sym>` spellings folded in. Empty when the tokens
     * before the paren are not a name (then it was no definition).
     */
    std::string
    functionName(size_t paren, int *nameLine) const
    {
        const auto &toks = lf.tokens;
        if (paren == SIZE_MAX || paren == 0 || paren <= headStart)
            return {};
        size_t i = paren - 1;
        if (isIdent(&toks[i], "operator")) {
            if (nameLine)
                *nameLine = toks[i].line;
            return "operator()";
        }
        if (toks[i].kind == Tok::Punct) {
            // operator<, operator==, operator[] ... collapse the
            // symbol run into one spelling.
            std::string sym;
            size_t j = i;
            while (j > headStart && toks[j].kind == Tok::Punct) {
                sym.insert(0, toks[j].text);
                --j;
            }
            if (isIdent(&toks[j], "operator")) {
                if (nameLine)
                    *nameLine = toks[j].line;
                return "operator" + sym;
            }
            return {};
        }
        if (toks[i].kind != Tok::Ident)
            return {};
        std::string name = toks[i].text;
        if (nameLine)
            *nameLine = toks[i].line;
        while (i >= 2 + headStart && isPunct(&toks[i - 1], ':') &&
               isPunct(&toks[i - 2], ':')) {
            if (i >= 3 + headStart && toks[i - 3].kind == Tok::Ident) {
                name = toks[i - 3].text + "::" + name;
                i -= 3;
            } else {
                break;  // leading :: — global qualification
            }
        }
        if (i > headStart && isPunct(&toks[i - 1], '~'))
            name = "~" + name;
        return name;
    }

    // ----------------------------------------------------------- locks

    std::string
    qualifyLock(const std::string &spelling, size_t funcIdx) const
    {
        if (spelling.empty() || funcIdx == SIZE_MAX)
            return spelling;
        const FunctionFact &fn = facts.functions[funcIdx];
        const size_t cut = fn.qualName.rfind("::");
        const std::string parent =
            cut == std::string::npos ? "" : fn.qualName.substr(0, cut);
        const bool method =
            parentIsType() ||
            fn.qualName.find("::") != std::string::npos;
        // Methods unify on the owning class (same member from any TU);
        // free-function locals stay file-scoped so same-named statics
        // in different TUs never alias.
        if (method && !parent.empty())
            return parent + "::" + spelling;
        return relpath + "::" + spelling;
    }

    void
    acquire(const std::string &qualified, int line, size_t funcIdx)
    {
        if (qualified.empty() || funcIdx == SIZE_MAX)
            return;
        for (const auto &h : held)
            if (h.first != qualified)
                facts.lockEdges.push_back(
                    {h.first, qualified, line, funcIdx});
        held.emplace_back(qualified, line);
        facts.directLocks[funcIdx].insert(qualified);
    }

    void
    release(const std::string &qualified)
    {
        for (size_t i = held.size(); i-- > 0;) {
            if (held[i].first == qualified) {
                held.erase(held.begin() + static_cast<long>(i));
                return;
            }
        }
    }

    /** Parse `(`-delimited argument expressions starting at @p open. */
    std::vector<std::pair<std::string, size_t>>
    parseArgs(size_t open) const
    {
        std::vector<std::pair<std::string, size_t>> args;
        const auto &toks = lf.tokens;
        if (!isPunct(at(open), '('))
            return args;
        int depth = 1;
        size_t argBegin = open + 1;
        size_t i = open + 1;
        for (; i < toks.size() && depth > 0; ++i) {
            if (isPunct(&toks[i], '(') || isPunct(&toks[i], '[') ||
                isPunct(&toks[i], '{'))
                ++depth;
            else if (isPunct(&toks[i], ')') || isPunct(&toks[i], ']') ||
                     isPunct(&toks[i], '}'))
                --depth;
            if ((depth == 1 && isPunct(&toks[i], ',')) ||
                (depth == 0 && isPunct(&toks[i], ')'))) {
                args.emplace_back(spellExpr(toks, argBegin, i),
                                  argBegin);
                argBegin = i + 1;
            }
        }
        return args;
    }

    // ------------------------------------------------------ main walk

    void
    run()
    {
        collectComments();
        collectUnorderedVars();

        for (const Directive &d : lf.directives) {
            if (!startsWith(d.text, "#include"))
                continue;
            const size_t q1 = d.text.find('"');
            const size_t q2 = q1 == std::string::npos
                                  ? std::string::npos
                                  : d.text.find('"', q1 + 1);
            if (q2 != std::string::npos)
                facts.includes.push_back(
                    {d.text.substr(q1 + 1, q2 - q1 - 1), d.line});
        }

        const auto &toks = lf.tokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];

            if (isPunct(&t, '{')) {
                openBrace(i);
                headStart = i + 1;
                continue;
            }
            if (isPunct(&t, '}')) {
                if (!stack.empty()) {
                    while (held.size() > stack.back().heldMark)
                        held.pop_back();
                    stack.pop_back();
                }
                headStart = i + 1;
                continue;
            }
            if (isPunct(&t, ';')) {
                headStart = i + 1;
                continue;
            }

            const size_t fn = curFunc();
            if (fn == SIZE_MAX)
                continue;

            if (t.kind == Tok::Ident)
                bodyIdent(i, fn);
        }
    }

    void
    openBrace(size_t i)
    {
        const HeadInfo h = scanHead(headStart, i);
        Frame f;
        f.heldMark = held.size();
        const Frame *top = stack.empty() ? nullptr : &stack.back();

        if (h.hasNamespace) {
            f.kind = Frame::Ns;
            f.name = namespaceName(headStart, i);
        } else if (h.hasTypeKw && !h.hasParen) {
            f.kind = Frame::Type;
            f.name = typeName(headStart, i);
            f.funcIdx = top ? top->funcIdx : SIZE_MAX;
        } else if (top && top->funcIdx != SIZE_MAX) {
            f.kind = Frame::Plain;
            f.funcIdx = top->funcIdx;
        } else if (h.hasParen && !h.hasTopAssign && !h.controlStart) {
            int nameLine = lf.tokens[i].line;
            const std::string name =
                functionName(h.firstParen, &nameLine);
            if (!name.empty()) {
                FunctionFact fact;
                const std::string chain = scopeChain();
                fact.qualName =
                    chain.empty() ? name : chain + "::" + name;
                fact.line = nameLine;
                fact.hot = consumeHotLine(nameLine);
                facts.functions.push_back(std::move(fact));
                f.kind = Frame::Func;
                f.funcIdx = facts.functions.size() - 1;
            }
        }
        stack.push_back(f);
    }

    void
    bodyIdent(size_t i, size_t fn)
    {
        const auto &toks = lf.tokens;
        const Token &t = toks[i];
        const Token *next = at(i + 1);
        const Token *prev = i > 0 ? &toks[i - 1] : nullptr;
        const bool memberPrefixed =
            prev && (isPunct(prev, '.') ||
                     (isPunct(prev, '>') && i >= 2 &&
                      isPunct(&toks[i - 2], '-')));

        // ------------------------------------------------- lock sites
        if ((t.text == "lock_guard" || t.text == "unique_lock" ||
             t.text == "scoped_lock") &&
            !memberPrefixed) {
            size_t j = i + 1;
            if (isPunct(at(j), '<')) {
                int angle = 1;
                for (++j; j < toks.size() && angle > 0; ++j) {
                    if (isPunct(&toks[j], '<'))
                        ++angle;
                    else if (isPunct(&toks[j], '>'))
                        --angle;
                }
            }
            if (at(j) && at(j)->kind == Tok::Ident)
                ++j;  // the guard variable's name
            if (isPunct(at(j), '(')) {
                for (auto &arg : parseArgs(j))
                    acquire(qualifyLock(arg.first, fn), t.line, fn);
            }
            return;
        }
        if (t.text == "call_once" && isPunct(next, '(')) {
            const auto args = parseArgs(i + 1);
            if (!args.empty())
                acquire(qualifyLock(args[0].first, fn), t.line, fn);
            // Fall through: call_once is also a recorded call, so the
            // linker can chase the invoked callable's lock set.
        }
        if (t.text == "lock" && memberPrefixed && isPunct(next, '(')) {
            const size_t end =
                isPunct(prev, '.') ? i - 1 : i - 2;
            size_t begin = end;
            while (begin > 0 &&
                   (toks[begin - 1].kind == Tok::Ident ||
                    toks[begin - 1].kind == Tok::Punct) &&
                   !isPunct(&toks[begin - 1], ';') &&
                   !isPunct(&toks[begin - 1], '{') &&
                   !isPunct(&toks[begin - 1], '}') &&
                   !isPunct(&toks[begin - 1], '(') &&
                   !isPunct(&toks[begin - 1], ','))
                --begin;
            acquire(qualifyLock(spellExpr(toks, begin, end), fn),
                    t.line, fn);
            return;
        }
        if (t.text == "unlock" && memberPrefixed &&
            isPunct(next, '(')) {
            const size_t end =
                isPunct(prev, '.') ? i - 1 : i - 2;
            size_t begin = end;
            while (begin > 0 &&
                   (toks[begin - 1].kind == Tok::Ident ||
                    toks[begin - 1].kind == Tok::Punct) &&
                   !isPunct(&toks[begin - 1], ';') &&
                   !isPunct(&toks[begin - 1], '{') &&
                   !isPunct(&toks[begin - 1], '}') &&
                   !isPunct(&toks[begin - 1], '(') &&
                   !isPunct(&toks[begin - 1], ','))
                --begin;
            release(qualifyLock(spellExpr(toks, begin, end), fn));
            return;
        }

        // --------------------------------------------------- hazards
        FunctionFact &fact = facts.functions[fn];
        if (!wallclockWhitelisted(relpath)) {
            if (wallclockIdents().count(t.text)) {
                fact.hazards.push_back(
                    {HazardKind::Wallclock, t.text, t.line});
            } else if ((t.text == "time" || t.text == "clock") &&
                       isPunct(next, '(') && !memberPrefixed &&
                       (!prev || prev->kind != Tok::Ident)) {
                fact.hazards.push_back(
                    {HazardKind::Wallclock, t.text, t.line});
            }
        }
        if (!randWhitelisted(relpath)) {
            if (randTypeIdents().count(t.text)) {
                fact.hazards.push_back(
                    {HazardKind::Rand, t.text, t.line});
            } else if ((t.text == "rand" || t.text == "srand") &&
                       isPunct(next, '(') && !memberPrefixed &&
                       (!prev || prev->kind != Tok::Ident)) {
                fact.hazards.push_back(
                    {HazardKind::Rand, t.text, t.line});
            }
        }
        if (t.text == "new" && !memberPrefixed) {
            fact.hazards.push_back({HazardKind::Alloc, "new", t.line});
            return;
        }
        if (allocIdents().count(t.text) && isPunct(next, '(')) {
            fact.hazards.push_back({HazardKind::Alloc, t.text, t.line});
            // Also recorded as a call below (harmlessly unresolved).
        }
        if (t.text == "for" && isPunct(next, '(')) {
            rangeForHazard(i, fact);
            return;
        }
        if ((t.text == "begin" || t.text == "end" ||
             t.text == "cbegin" || t.text == "cend") &&
            memberPrefixed && isPunct(next, '(')) {
            const size_t obj = isPunct(prev, '.') ? i - 2 : i - 3;
            if (obj < toks.size() && toks[obj].kind == Tok::Ident &&
                unorderedVars.count(toks[obj].text))
                fact.hazards.push_back({HazardKind::UnorderedIter,
                                        toks[obj].text, t.line});
        }

        // ----------------------------------------------------- calls
        if (!isPunct(next, '('))
            return;
        if (controlKeywords().count(t.text))
            return;
        // `Type name(args)` is a declaration, not a call: the token
        // before a genuine unqualified call is never an identifier or
        // a closing template angle — except statement keywords
        // (`return f(x)` is a call, `return` is not a type).
        const bool qualified =
            prev && isPunct(prev, ':') && i >= 2 &&
            isPunct(&toks[i - 2], ':');
        if (!memberPrefixed && !qualified && prev &&
            ((prev->kind == Tok::Ident &&
              !statementKeywords().count(prev->text)) ||
             isPunct(prev, '>')))
            return;
        std::string name = t.text;
        if (qualified) {
            size_t k = i;
            while (k >= 2 + 1 && isPunct(&toks[k - 1], ':') &&
                   isPunct(&toks[k - 2], ':') &&
                   toks[k - 3].kind == Tok::Ident) {
                name = toks[k - 3].text + "::" + name;
                k -= 3;
            }
            // Reject `Type x(...)` behind the qualified spelling too.
            const Token *q = k > 0 ? &toks[k - 1] : nullptr;
            if (q && q->kind == Tok::Ident &&
                !statementKeywords().count(q->text))
                return;
        }
        // `this->f()` is a same-class call in member clothing: record
        // it unprefixed so the linker's scope-chain match applies.
        bool member = memberPrefixed;
        if (member) {
            const size_t obj = isPunct(prev, '.') ? i - 2 : i - 3;
            if (obj < toks.size() && toks[obj].text == "this")
                member = false;
        }
        fact.calls.push_back({name, t.line, member, heldSpellings()});
    }

    std::vector<std::string>
    heldSpellings() const
    {
        std::vector<std::string> out;
        out.reserve(held.size());
        for (const auto &h : held)
            out.push_back(h.first);
        return out;
    }

    void
    rangeForHazard(size_t i, FunctionFact &fact)
    {
        // for ( decl : range ) — any unordered variable named in the
        // range expression is an iteration hazard.
        const auto &toks = lf.tokens;
        if (!isPunct(at(i + 1), '('))
            return;
        int depth = 1;
        size_t colon = SIZE_MAX;
        size_t j = i + 2;
        for (; j < toks.size() && depth > 0; ++j) {
            if (isPunct(&toks[j], '('))
                ++depth;
            else if (isPunct(&toks[j], ')'))
                --depth;
            else if (depth == 1 && isPunct(&toks[j], ':') &&
                     !isPunct(at(j + 1), ':') &&
                     !(j > 0 && isPunct(&toks[j - 1], ':')))
                colon = j;
        }
        if (colon == SIZE_MAX)
            return;
        for (size_t k = colon + 1; k < j; ++k)
            if (toks[k].kind == Tok::Ident &&
                unorderedVars.count(toks[k].text)) {
                fact.hazards.push_back({HazardKind::UnorderedIter,
                                        toks[k].text, toks[k].line});
                return;
            }
    }
};

} // namespace

const char *
hazardKindName(HazardKind k)
{
    switch (k) {
      case HazardKind::Wallclock: return "wallclock";
      case HazardKind::Rand: return "rand";
      case HazardKind::UnorderedIter: return "unordered-iter";
      case HazardKind::Alloc: return "alloc";
    }
    return "?";
}

const std::set<std::string> &
wallclockIdents()
{
    static const std::set<std::string> s = {
        "steady_clock",  "system_clock", "high_resolution_clock",
        "gettimeofday",  "clock_gettime", "ftime",
        "timespec_get"};
    return s;
}

bool
wallclockWhitelisted(const std::string &relpath)
{
    return startsWith(relpath, "src/obs/tracing.");
}

FileFacts
extractFacts(const std::string &relpath, const LexedFile &lf)
{
    Extractor ex(relpath, lf);
    ex.run();
    return std::move(ex.facts);
}

} // namespace vlint
