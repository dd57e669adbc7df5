/**
 * @file
 * Pass-2 linker and graph rules (see graph.hpp). Everything here is
 * deterministic: files arrive in sorted order from the driver, nodes
 * are created in encounter order, and every worklist is index-ordered,
 * so findings and the graph JSON are byte-stable across runs.
 */

#include "graph.hpp"

#include <algorithm>
#include <cstdio>
#include <queue>

namespace vlint {

namespace {

bool
startsWith(const std::string &s, const std::string &p)
{
    return s.size() >= p.size() && s.compare(0, p.size(), p) == 0;
}

bool
endsWith(const std::string &s, const std::string &p)
{
    return s.size() >= p.size() &&
           s.compare(s.size() - p.size(), p.size(), p) == 0;
}

/** Does @p qual end with name @p n on a `::` component boundary? */
bool
endsWithComponent(const std::string &qual, const std::string &n)
{
    if (qual == n)
        return true;
    return qual.size() > n.size() + 2 && endsWith(qual, n) &&
           qual.compare(qual.size() - n.size() - 2, 2, "::") == 0;
}

/**
 * Ubiquitous container/utility member names: resolving `v.insert(x)`
 * by suffix would link every map insert to any in-tree method that
 * happens to be called `insert`. These only resolve through an exact
 * innermost-scope match (the caller's own class); otherwise they stay
 * external.
 */
const std::set<std::string> &
memberStoplist()
{
    static const std::set<std::string> s = {
        "insert",  "erase",   "push_back", "emplace_back", "resize",
        "reserve", "clear",   "size",      "empty",        "begin",
        "end",     "find",    "count",     "at",           "get",
        "reset",   "lock",    "unlock",    "c_str",        "data",
        "str",     "front",   "back",      "pop_back",     "swap",
        "append",  "substr",  "emplace",   "push_front",   "pop_front",
        "first",   "second",  "join",      "load",         "store",
        "fetch_add", "value", "what",      "name",
        // Domain verbs that many unrelated classes spell identically
        // (PdnSim::step vs VoltageSim::step vs Convolver::step;
        // Histogram::add vs RailTally::add): a bare member call
        // would link to every one of them across classes, wiring
        // whole false subtrees into the reachability rules. Same-class
        // calls still resolve via the exact innermost-scope match.
        "step",    "add"};
    return s;
}

/** Deterministic roots of the byte-identical-results contract. */
bool
isDetRoot(const std::string &qual)
{
    static const std::vector<std::string> steps = {"::stepShared",
                                                   "::stepPerLane"};
    static const std::vector<std::string> classes = {
        "TraceCache::", "TraceStore::"};
    if (endsWithComponent(qual, "CampaignEngine::run"))
        return true;
    for (const auto &s : steps)
        if (endsWith(qual, s))
            return true;
    for (const auto &c : classes)
        if (qual.find(c) != std::string::npos)
            return true;
    return false;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
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

std::string
dirOf(const std::string &path)
{
    const size_t cut = path.rfind('/');
    return cut == std::string::npos ? std::string()
                                    : path.substr(0, cut);
}

} // namespace

int
layerRank(const std::string &relpath)
{
    if (startsWith(relpath, "src/util/"))
        return 0;
    if (startsWith(relpath, "src/linsys/") ||
        startsWith(relpath, "src/isa/"))
        return 1;
    if (startsWith(relpath, "src/pdn/") ||
        startsWith(relpath, "src/power/") ||
        startsWith(relpath, "src/cpu/") ||
        startsWith(relpath, "src/workloads/"))
        return 2;
    if (startsWith(relpath, "src/obs/"))
        return 3;
    if (startsWith(relpath, "src/core/"))
        return 4;
    return 5;  // tools / bench / examples / tests / unknown
}

CallGraph
linkFacts(const std::vector<FileFacts> &files,
          const std::set<std::string> &treeFiles)
{
    CallGraph g;

    // ---- nodes: every definition, overloads collapsed by qualName.
    for (const FileFacts &ff : files) {
        for (const FunctionFact &fn : ff.functions) {
            auto it = g.byName.find(fn.qualName);
            if (it == g.byName.end()) {
                CallGraph::Node n;
                n.qualName = fn.qualName;
                n.file = ff.file;
                n.line = fn.line;
                n.hot = fn.hot;
                n.hazards = fn.hazards;
                g.byName.emplace(fn.qualName, g.nodes.size());
                g.nodes.push_back(std::move(n));
            } else {
                CallGraph::Node &n = g.nodes[it->second];
                n.hot = n.hot || fn.hot;
                n.hazards.insert(n.hazards.end(), fn.hazards.begin(),
                                 fn.hazards.end());
            }
        }
    }
    g.nDefined = g.nodes.size();

    // Suffix index: last name component → defined node indices.
    std::map<std::string, std::vector<size_t>> byLast;
    for (size_t i = 0; i < g.nDefined; ++i) {
        const std::string &q = g.nodes[i].qualName;
        const size_t cut = q.rfind("::");
        byLast[cut == std::string::npos ? q : q.substr(cut + 2)]
            .push_back(i);
    }

    std::map<std::string, size_t> externals;
    auto externalNode = [&](const std::string &name) {
        auto it = externals.find(name);
        if (it != externals.end())
            return it->second;
        CallGraph::Node n;
        n.qualName = name;
        n.external = true;
        g.nodes.push_back(std::move(n));
        externals.emplace(name, g.nodes.size() - 1);
        return g.nodes.size() - 1;
    };

    auto resolve = [&](const CallGraph::Node &caller,
                       const CallFact &call) {
        std::vector<size_t> out;
        // Innermost-scope exact match: walk the caller's scope chain
        // outward, so `evict()` inside TraceCache::get binds to
        // TraceCache::evict before any same-named free function.
        // Member calls (obj.f / obj->f on anything but `this`) target
        // the *object's* class, not the caller's, so they must not
        // scope-match — `conv_->step()` inside a VoltageSim method is
        // not VoltageSim::step. They go straight to suffix matching.
        if (!call.member) {
            std::string scope = caller.qualName;
            for (;;) {
                const size_t cut = scope.rfind("::");
                scope = cut == std::string::npos
                            ? std::string()
                            : scope.substr(0, cut);
                const std::string cand = scope.empty()
                                             ? call.name
                                             : scope + "::" + call.name;
                auto it = g.byName.find(cand);
                if (it != g.byName.end()) {
                    out.push_back(it->second);
                    return out;
                }
                if (scope.empty())
                    break;
            }
        }
        const size_t cut = call.name.rfind("::");
        const std::string last = cut == std::string::npos
                                     ? call.name
                                     : call.name.substr(cut + 2);
        if (call.member && cut == std::string::npos &&
            memberStoplist().count(last))
            return out;  // external: too generic to suffix-match
        const int callerRank = layerRank(caller.file);
        auto it = byLast.find(last);
        if (it != byLast.end()) {
            for (size_t idx : it->second) {
                const CallGraph::Node &cand = g.nodes[idx];
                if (!endsWithComponent(cand.qualName, call.name))
                    continue;
                // Layer filter: src code never links upward into
                // same-named helpers in tools/bench/tests.
                if (layerRank(cand.file) > callerRank)
                    continue;
                out.push_back(idx);
            }
        }
        return out;
    };

    // ---- call edges (and held-lock call sites for lock-order).
    struct HeldCall
    {
        std::vector<std::string> held;
        size_t callee;
        std::string file;
        int line;
    };
    std::vector<HeldCall> heldCalls;

    for (const FileFacts &ff : files) {
        for (const FunctionFact &fn : ff.functions) {
            const size_t callerIdx = g.byName.at(fn.qualName);
            for (const CallFact &call : fn.calls) {
                std::vector<size_t> targets =
                    resolve(g.nodes[callerIdx], call);
                if (targets.empty())
                    targets.push_back(externalNode(call.name));
                for (size_t t : targets) {
                    CallGraph::Node &caller = g.nodes[callerIdx];
                    if (!caller.callLines.count(t)) {
                        caller.callLines.emplace(t, call.line);
                        caller.callees.push_back(t);
                        ++g.nCallEdges;
                    }
                    if (!call.heldLocks.empty() && t < g.nDefined)
                        heldCalls.push_back({call.heldLocks, t,
                                             ff.file, call.line});
                }
            }
        }
    }
    for (auto &n : g.nodes)
        std::sort(n.callees.begin(), n.callees.end());
    g.nExternal = g.nodes.size() - g.nDefined;

    // ---- roots / hot counts.
    for (size_t i = 0; i < g.nDefined; ++i) {
        CallGraph::Node &n = g.nodes[i];
        n.root = isDetRoot(n.qualName);
        g.nRoots += n.root ? 1 : 0;
        g.nHot += n.hot ? 1 : 0;
    }

    // ---- include DAG (quoted includes resolved against the walk).
    for (const FileFacts &ff : files) {
        for (const IncludeFact &inc : ff.includes) {
            std::string target;
            const std::string sib = dirOf(ff.file).empty()
                                        ? inc.target
                                        : dirOf(ff.file) + "/" +
                                              inc.target;
            if (treeFiles.count(sib))
                target = sib;
            else if (treeFiles.count("src/" + inc.target))
                target = "src/" + inc.target;
            else if (treeFiles.count(inc.target))
                target = inc.target;
            else
                continue;  // outside the walked roots
            g.includes.push_back({ff.file, target, inc.line,
                                  layerRank(ff.file),
                                  layerRank(target)});
        }
    }

    // ---- lock-order edges: direct block edges, then one fixpoint
    // over the call graph so locks acquired anywhere inside a callee
    // count while the caller holds its own lock.
    for (const FileFacts &ff : files)
        for (const LockEdge &e : ff.lockEdges)
            g.lockEdges.push_back(
                {e.first, e.second, ff.file, e.line, false});

    std::vector<std::set<std::string>> acq(g.nodes.size());
    for (const FileFacts &ff : files)
        for (const auto &kv : ff.directLocks) {
            const FunctionFact &fn = ff.functions[kv.first];
            acq[g.byName.at(fn.qualName)].insert(kv.second.begin(),
                                                 kv.second.end());
        }
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t i = 0; i < g.nDefined; ++i) {
            for (size_t c : g.nodes[i].callees) {
                for (const std::string &m : acq[c])
                    if (acq[i].insert(m).second)
                        changed = true;
            }
        }
    }
    std::set<std::pair<std::string, std::string>> seenTrans;
    for (const auto &e : g.lockEdges)
        seenTrans.insert({e.first, e.second});
    for (const HeldCall &hc : heldCalls) {
        for (const std::string &h : hc.held) {
            for (const std::string &m : acq[hc.callee]) {
                if (m == h || !seenTrans.insert({h, m}).second)
                    continue;
                g.lockEdges.push_back({h, m, hc.file, hc.line, true});
            }
        }
    }

    return g;
}

namespace {

/**
 * Multi-source BFS over call edges with parent tracking; returns the
 * parent map (SIZE_MAX = source or unreached) and distance map.
 */
void
bfs(const CallGraph &g, const std::vector<size_t> &sources,
    std::vector<size_t> &parent, std::vector<int> &dist)
{
    parent.assign(g.nodes.size(), SIZE_MAX);
    dist.assign(g.nodes.size(), -1);
    std::queue<size_t> q;
    for (size_t s : sources) {
        if (dist[s] == -1) {
            dist[s] = 0;
            q.push(s);
        }
    }
    while (!q.empty()) {
        const size_t u = q.front();
        q.pop();
        for (size_t v : g.nodes[u].callees) {
            if (dist[v] != -1)
                continue;
            dist[v] = dist[u] + 1;
            parent[v] = u;
            q.push(v);
        }
    }
}

std::string
chainString(const CallGraph &g, const std::vector<size_t> &parent,
            size_t node)
{
    std::vector<size_t> path;
    for (size_t u = node; u != SIZE_MAX; u = parent[u]) {
        path.push_back(u);
        if (path.size() > g.nodes.size())
            break;  // defensive: parent maps are acyclic by BFS
    }
    std::reverse(path.begin(), path.end());
    std::string out;
    for (size_t u : path) {
        if (!out.empty())
            out += " -> ";
        out += g.nodes[u].qualName;
    }
    return out;
}

void
ruleDetReach(const CallGraph &g, std::vector<Finding> &out)
{
    std::vector<size_t> roots;
    for (size_t i = 0; i < g.nDefined; ++i)
        if (g.nodes[i].root)
            roots.push_back(i);
    std::vector<size_t> parent;
    std::vector<int> dist;
    bfs(g, roots, parent, dist);
    for (size_t i = 0; i < g.nDefined; ++i) {
        if (dist[i] == -1)
            continue;
        const CallGraph::Node &n = g.nodes[i];
        std::set<std::pair<int, std::string>> seen;
        for (const HazardFact &h : n.hazards) {
            if (h.kind == HazardKind::Alloc)
                continue;  // alloc-hot's department
            if (!seen.insert({h.line, h.what}).second)
                continue;
            Finding f;
            f.rule = "det-reach";
            f.file = n.file;
            f.line = h.line;
            f.message = std::string(hazardKindName(h.kind)) +
                        " hazard '" + h.what +
                        "' is reachable from a deterministic root: " +
                        chainString(g, parent, i) +
                        " — results must be byte-identical at any "
                        "worker count";
            out.push_back(std::move(f));
        }
    }
}

void
ruleAllocHot(const CallGraph &g, int hotDepth,
             std::vector<Finding> &out)
{
    std::vector<size_t> seeds;
    for (size_t i = 0; i < g.nDefined; ++i)
        if (g.nodes[i].hot)
            seeds.push_back(i);
    std::vector<size_t> parent;
    std::vector<int> dist;
    bfs(g, seeds, parent, dist);
    for (size_t i = 0; i < g.nDefined; ++i) {
        if (dist[i] == -1 || dist[i] > hotDepth)
            continue;
        const CallGraph::Node &n = g.nodes[i];
        std::set<std::pair<int, std::string>> seen;
        for (const HazardFact &h : n.hazards) {
            if (h.kind != HazardKind::Alloc)
                continue;
            if (!seen.insert({h.line, h.what}).second)
                continue;
            Finding f;
            f.rule = "alloc-hot";
            f.file = n.file;
            f.line = h.line;
            f.message = "allocation '" + h.what + "' within depth " +
                        std::to_string(dist[i]) +
                        " of a hot kernel: " +
                        chainString(g, parent, i) +
                        " — allocate outside the per-cycle path";
            out.push_back(std::move(f));
        }
    }
}

void
ruleLockOrder(const CallGraph &g, std::vector<Finding> &out)
{
    // Tarjan SCC over the lock-order graph; any SCC of two or more
    // locks means two code paths acquire them in opposite orders.
    std::vector<std::string> names;
    std::map<std::string, size_t> id;
    auto intern = [&](const std::string &s) {
        auto it = id.find(s);
        if (it != id.end())
            return it->second;
        id.emplace(s, names.size());
        names.push_back(s);
        return names.size() - 1;
    };
    std::vector<std::vector<size_t>> adj;
    for (const auto &e : g.lockEdges) {
        const size_t a = intern(e.first);
        const size_t b = intern(e.second);
        if (adj.size() < names.size())
            adj.resize(names.size());
        adj[a].push_back(b);
    }
    adj.resize(names.size());

    const size_t n = names.size();
    std::vector<int> idx(n, -1), low(n, 0);
    std::vector<bool> onStack(n, false);
    std::vector<size_t> stk;
    std::vector<std::vector<size_t>> sccs;
    int counter = 0;
    // Iterative Tarjan (explicit frame stack — lint trees are small
    // but recursion depth is an invitation).
    struct FrameT
    {
        size_t v;
        size_t child = 0;
    };
    for (size_t s = 0; s < n; ++s) {
        if (idx[s] != -1)
            continue;
        std::vector<FrameT> frames{{s}};
        idx[s] = low[s] = counter++;
        stk.push_back(s);
        onStack[s] = true;
        while (!frames.empty()) {
            FrameT &fr = frames.back();
            if (fr.child < adj[fr.v].size()) {
                const size_t w = adj[fr.v][fr.child++];
                if (idx[w] == -1) {
                    idx[w] = low[w] = counter++;
                    stk.push_back(w);
                    onStack[w] = true;
                    frames.push_back({w});
                } else if (onStack[w]) {
                    low[fr.v] = std::min(low[fr.v], idx[w]);
                }
                continue;
            }
            if (idx[fr.v] == low[fr.v]) {
                std::vector<size_t> scc;
                for (;;) {
                    const size_t w = stk.back();
                    stk.pop_back();
                    onStack[w] = false;
                    scc.push_back(w);
                    if (w == fr.v)
                        break;
                }
                if (scc.size() > 1)
                    sccs.push_back(std::move(scc));
            }
            const size_t v = fr.v;
            frames.pop_back();
            if (!frames.empty())
                low[frames.back().v] =
                    std::min(low[frames.back().v], low[v]);
        }
    }

    for (auto &scc : sccs) {
        std::sort(scc.begin(), scc.end(), [&](size_t a, size_t b) {
            return names[a] < names[b];
        });
        std::set<size_t> members(scc.begin(), scc.end());
        // Witness edges inside the SCC, in input (deterministic)
        // order; the first one anchors the finding.
        const CallGraph::LockOrderEdge *anchor = nullptr;
        std::string cycle;
        for (size_t m : scc) {
            if (!cycle.empty())
                cycle += " <-> ";
            cycle += names[m];
        }
        std::string sites;
        for (const auto &e : g.lockEdges) {
            if (!members.count(id.at(e.first)) ||
                !members.count(id.at(e.second)))
                continue;
            if (!anchor)
                anchor = &e;
            if (!sites.empty())
                sites += "; ";
            sites += e.first + " -> " + e.second + " at " + e.file +
                     ":" + std::to_string(e.line) +
                     (e.transitive ? " (via call)" : "");
        }
        if (!anchor)
            continue;
        Finding f;
        f.rule = "lock-order";
        f.file = anchor->file;
        f.line = anchor->line;
        f.message = "inconsistent lock acquisition order between {" +
                    cycle + "}: " + sites;
        out.push_back(std::move(f));
    }
}

void
ruleLayerDag(const CallGraph &g, std::vector<Finding> &out)
{
    static const char *layers[] = {
        "src/util", "src/linsys|src/isa",
        "src/pdn|src/power|src/cpu|src/workloads", "src/obs",
        "src/core", "tools|bench|examples|tests"};
    for (const auto &e : g.includes) {
        if (e.toRank <= e.fromRank)
            continue;
        Finding f;
        f.rule = "layer-dag";
        f.file = e.from;
        f.line = e.line;
        f.message = "layering back-edge: " + e.from + " (layer " +
                    layers[e.fromRank] + ") includes " + e.to +
                    " (layer " + layers[e.toRank] +
                    "); dependencies must flow util < linsys < "
                    "pdn/power/cpu < obs < core < tools";
        out.push_back(std::move(f));
    }
}

} // namespace

std::vector<Finding>
runGraphRules(const CallGraph &g, int hotDepth)
{
    std::vector<Finding> out;
    ruleDetReach(g, out);
    ruleAllocHot(g, hotDepth, out);
    ruleLockOrder(g, out);
    ruleLayerDag(g, out);
    return out;
}

std::string
graphJson(const CallGraph &g)
{
    std::string out = "{\n  \"functions\": [\n";
    for (size_t i = 0; i < g.nodes.size(); ++i) {
        const CallGraph::Node &n = g.nodes[i];
        out += "    {\"name\": \"" + jsonEscape(n.qualName) +
               "\", \"file\": \"" + jsonEscape(n.file) +
               "\", \"line\": " + std::to_string(n.line) +
               ", \"external\": " + (n.external ? "true" : "false") +
               ", \"hot\": " + (n.hot ? "true" : "false") +
               ", \"root\": " + (n.root ? "true" : "false") +
               ", \"hazards\": [";
        for (size_t h = 0; h < n.hazards.size(); ++h) {
            if (h)
                out += ", ";
            out += std::string("{\"kind\": \"") +
                   hazardKindName(n.hazards[h].kind) +
                   "\", \"what\": \"" + jsonEscape(n.hazards[h].what) +
                   "\", \"line\": " +
                   std::to_string(n.hazards[h].line) + "}";
        }
        out += "], \"calls\": [";
        for (size_t c = 0; c < n.callees.size(); ++c) {
            if (c)
                out += ", ";
            out += std::to_string(n.callees[c]);
        }
        out += "]}";
        out += i + 1 < g.nodes.size() ? ",\n" : "\n";
    }
    out += "  ],\n  \"includes\": [\n";
    for (size_t i = 0; i < g.includes.size(); ++i) {
        const auto &e = g.includes[i];
        out += "    {\"from\": \"" + jsonEscape(e.from) +
               "\", \"to\": \"" + jsonEscape(e.to) +
               "\", \"line\": " + std::to_string(e.line) +
               ", \"from_rank\": " + std::to_string(e.fromRank) +
               ", \"to_rank\": " + std::to_string(e.toRank) + "}";
        out += i + 1 < g.includes.size() ? ",\n" : "\n";
    }
    out += "  ],\n  \"lock_edges\": [\n";
    for (size_t i = 0; i < g.lockEdges.size(); ++i) {
        const auto &e = g.lockEdges[i];
        out += "    {\"first\": \"" + jsonEscape(e.first) +
               "\", \"second\": \"" + jsonEscape(e.second) +
               "\", \"file\": \"" + jsonEscape(e.file) +
               "\", \"line\": " + std::to_string(e.line) +
               ", \"transitive\": " +
               (e.transitive ? "true" : "false") + "}";
        out += i + 1 < g.lockEdges.size() ? ",\n" : "\n";
    }
    out += "  ],\n  \"roots\": [";
    bool first = true;
    for (size_t i = 0; i < g.nDefined; ++i) {
        if (!g.nodes[i].root)
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += std::to_string(i);
    }
    out += "],\n  \"stats\": {\"functions\": " +
           std::to_string(g.nDefined) +
           ", \"externals\": " + std::to_string(g.nExternal) +
           ", \"call_edges\": " + std::to_string(g.nCallEdges) +
           ", \"include_edges\": " + std::to_string(g.includes.size()) +
           ", \"lock_edges\": " + std::to_string(g.lockEdges.size()) +
           ", \"roots\": " + std::to_string(g.nRoots) +
           ", \"hot\": " + std::to_string(g.nHot) + "}\n}\n";
    return out;
}

} // namespace vlint
