/**
 * @file
 * vlint cross-TU pass tests: fact extraction, call-graph linking, and
 * the four graph rules (det-reach, alloc-hot, lock-order, layer-dag)
 * over synthetic multi-file fixtures. The single-file rules and the
 * real-tree gate live in test_vlint.cpp.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "facts.hpp"
#include "graph.hpp"
#include "lexer.hpp"

using vlint::CallGraph;
using vlint::FileFacts;
using vlint::Finding;

namespace {

/** A synthetic multi-file tree fed straight into the linker. */
struct Tree
{
    std::vector<FileFacts> files;
    std::set<std::string> paths;

    void add(const std::string &path, const std::string &src)
    {
        files.push_back(vlint::extractFacts(path, vlint::lex(src)));
        paths.insert(path);
    }

    CallGraph link() const { return vlint::linkFacts(files, paths); }
};

const CallGraph::Node *
node(const CallGraph &g, const std::string &qualName)
{
    const auto it = g.byName.find(qualName);
    return it == g.byName.end() ? nullptr : &g.nodes[it->second];
}

bool
callsTo(const CallGraph &g, const std::string &from,
        const std::string &to)
{
    const CallGraph::Node *f = node(g, from);
    if (!f)
        return false;
    for (size_t idx : f->callees)
        if (g.nodes[idx].qualName == to)
            return true;
    return false;
}

bool
hasRule(const std::vector<Finding> &v, const std::string &rule)
{
    return std::any_of(v.begin(), v.end(), [&](const Finding &f) {
        return f.rule == rule;
    });
}

const Finding *
firstOf(const std::vector<Finding> &v, const std::string &rule)
{
    for (const Finding &f : v)
        if (f.rule == rule)
            return &f;
    return nullptr;
}

} // namespace

// ------------------------------------------------------------ linking

TEST(VlintGraph, OutOfLineMethodsGetClassQualifiedNames)
{
    Tree t;
    t.add("src/core/widget.cpp",
          "namespace vguard::core {\n"
          "int helper(int v) { return v + 1; }\n"
          "int\n"
          "Widget::total(int v)\n"
          "{\n"
          "    return helper(v);\n"
          "}\n"
          "} // namespace vguard::core\n");
    const CallGraph g = t.link();
    ASSERT_NE(node(g, "vguard::core::Widget::total"), nullptr);
    ASSERT_NE(node(g, "vguard::core::helper"), nullptr);
    EXPECT_TRUE(callsTo(g, "vguard::core::Widget::total",
                        "vguard::core::helper"));
}

TEST(VlintGraph, OverloadsCollapseOntoOneNode)
{
    Tree t;
    t.add("src/core/over.cpp",
          "namespace app {\n"
          "void f(int x) { (void)x; }\n"
          "void f(double x) { (void)x; }\n"
          "void g() { f(1); }\n"
          "} // namespace app\n");
    const CallGraph g = t.link();
    EXPECT_EQ(g.byName.count("app::f"), 1u);
    EXPECT_EQ(g.nDefined, 2u);  // f (collapsed) and g
    EXPECT_TRUE(callsTo(g, "app::g", "app::f"));
}

TEST(VlintGraph, UnresolvedExternalIsRecordedNotGuessed)
{
    Tree t;
    t.add("src/core/ext.cpp", "void caller() { frobnicate(3); }\n");
    const CallGraph g = t.link();
    EXPECT_EQ(node(g, "frobnicate"), nullptr);  // not a defined node
    bool sawExternal = false;
    for (const CallGraph::Node &n : g.nodes)
        if (n.qualName == "frobnicate")
            sawExternal = n.external;
    EXPECT_TRUE(sawExternal);
    EXPECT_EQ(g.nExternal, 1u);
}

TEST(VlintGraph, MemberCallsDoNotBindToTheCallersOwnClass)
{
    // conv_->step() inside a Sim method is another object's step, not
    // Sim::step — member calls on foreign objects must skip the
    // caller's scope chain (this-> still binds home).
    Tree t;
    t.add("src/core/sim.cpp",
          "namespace app {\n"
          "void Sim::step() { this->tick(); }\n"
          "void Sim::tick() { }\n"
          "void Sim::run() { conv_->step(1.0); }\n"
          "} // namespace app\n");
    const CallGraph g = t.link();
    EXPECT_TRUE(callsTo(g, "app::Sim::step", "app::Sim::tick"));
    EXPECT_FALSE(callsTo(g, "app::Sim::run", "app::Sim::step"));
}

// ----------------------------------------------------------- det-reach

TEST(VlintGraph, DetReachReportsFullCallChainThroughCycles)
{
    Tree t;
    t.add("src/core/eng.cpp",
          "struct CampaignEngine {\n"
          "    void run()\n"
          "    {\n"
          "        helperA();\n"
          "    }\n"
          "};\n"
          "void helperA() { helperB(); }\n"
          "void helperB()\n"
          "{\n"
          "    helperA();\n"  // recursion cycle must not hang the BFS
          "    int r = rand();\n"
          "    (void)r;\n"
          "}\n");
    const CallGraph g = t.link();
    EXPECT_EQ(g.nRoots, 1u);
    const auto findings = vlint::runGraphRules(g, 3);
    const Finding *f = firstOf(findings, "det-reach");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->file, "src/core/eng.cpp");
    EXPECT_NE(f->message.find("CampaignEngine::run"),
              std::string::npos);
    EXPECT_NE(f->message.find("->"), std::string::npos);
    EXPECT_NE(f->message.find("helperB"), std::string::npos);
}

TEST(VlintGraph, DetReachSharesTheWallclockRulesIdentifiers)
{
    // det-wallclock and det-reach read one identifier list: a
    // timespec_get behind the campaign engine is a reachable hazard.
    Tree t;
    t.add("src/core/eng.cpp",
          "struct CampaignEngine {\n"
          "    void run() { stamp(); }\n"
          "};\n"
          "void stamp()\n"
          "{\n"
          "    timespec ts;\n"
          "    timespec_get(&ts, TIME_UTC);\n"
          "}\n");
    const CallGraph g = t.link();
    const auto findings = vlint::runGraphRules(g, 3);
    const Finding *f = firstOf(findings, "det-reach");
    ASSERT_NE(f, nullptr);
    EXPECT_NE(f->message.find("timespec_get"), std::string::npos)
        << f->message;
}

TEST(VlintGraph, HazardsWithoutARootPathStayQuiet)
{
    Tree t;
    t.add("src/core/quiet.cpp",
          "void standalone() { int r = rand(); (void)r; }\n");
    const CallGraph g = t.link();
    EXPECT_FALSE(hasRule(vlint::runGraphRules(g, 3), "det-reach"));
}

// ----------------------------------------------------------- alloc-hot

TEST(VlintGraph, AllocHotHonoursTheDepthBudget)
{
    Tree t;
    t.add("src/pdn/kern.cpp",
          "// vlint: hot\n"
          "void kern() { l1(); }\n"
          "void l1() { l2(); }\n"
          "void l2() { l3(); }\n"
          "void l3() { l4(); }\n"
          "void l4() { buf.push_back(1); }\n");
    const CallGraph g = t.link();
    EXPECT_EQ(g.nHot, 1u);
    const CallGraph::Node *k = node(g, "kern");
    ASSERT_NE(k, nullptr);
    EXPECT_TRUE(k->hot);
    // The alloc sits at depth 4; the default budget of 3 stops short.
    EXPECT_FALSE(hasRule(vlint::runGraphRules(g, 3), "alloc-hot"));
    EXPECT_TRUE(hasRule(vlint::runGraphRules(g, 4), "alloc-hot"));
}

TEST(VlintGraph, AllocInsideTheHotKernelItselfIsDepthZero)
{
    Tree t;
    t.add("src/pdn/kern.cpp",
          "// vlint: hot\n"
          "void kern() { scratch.resize(64); }\n");
    const CallGraph g = t.link();
    const auto findings = vlint::runGraphRules(g, 0);
    const Finding *f = firstOf(findings, "alloc-hot");
    ASSERT_NE(f, nullptr);
    EXPECT_NE(f->message.find("depth 0"), std::string::npos);
    EXPECT_NE(f->message.find("kern"), std::string::npos);
}

// ---------------------------------------------------------- lock-order

TEST(VlintGraph, InconsistentAcquisitionOrderAcrossTusIsACycle)
{
    Tree t;
    t.add("src/core/tu1.cpp",
          "namespace app {\n"
          "void Svc::f()\n"
          "{\n"
          "    std::lock_guard<std::mutex> a(mA);\n"
          "    std::lock_guard<std::mutex> b(mB);\n"
          "}\n"
          "} // namespace app\n");
    t.add("src/core/tu2.cpp",
          "namespace app {\n"
          "void Svc::g()\n"
          "{\n"
          "    std::lock_guard<std::mutex> b(mB);\n"
          "    std::lock_guard<std::mutex> a(mA);\n"
          "}\n"
          "} // namespace app\n");
    const CallGraph g = t.link();
    EXPECT_EQ(g.lockEdges.size(), 2u);
    const auto findings = vlint::runGraphRules(g, 3);
    const Finding *f = firstOf(findings, "lock-order");
    ASSERT_NE(f, nullptr);
    EXPECT_NE(f->message.find("mA"), std::string::npos);
    EXPECT_NE(f->message.find("mB"), std::string::npos);
}

TEST(VlintGraph, ConsistentOrderAcrossTusIsFine)
{
    Tree t;
    t.add("src/core/tu1.cpp",
          "namespace app {\n"
          "void Svc::f()\n"
          "{\n"
          "    std::lock_guard<std::mutex> a(mA);\n"
          "    std::lock_guard<std::mutex> b(mB);\n"
          "}\n"
          "} // namespace app\n");
    t.add("src/core/tu2.cpp",
          "namespace app {\n"
          "void Svc::g()\n"
          "{\n"
          "    std::lock_guard<std::mutex> a(mA);\n"
          "    std::lock_guard<std::mutex> b(mB);\n"
          "}\n"
          "} // namespace app\n");
    const CallGraph g = t.link();
    EXPECT_FALSE(hasRule(vlint::runGraphRules(g, 3), "lock-order"));
}

TEST(VlintGraph, LockHeldAcrossACallChainOrdersTransitively)
{
    // f holds mA and calls helper, which takes mB: that is an
    // mA -> mB edge even though no block in the tree nests the two
    // guards. (helper is a method of the same class so both locks
    // qualify onto Svc — name-based lock identity is per-class.)
    Tree t;
    t.add("src/core/tu1.cpp",
          "namespace app {\n"
          "void Svc::f()\n"
          "{\n"
          "    std::lock_guard<std::mutex> a(mA);\n"
          "    helper();\n"
          "}\n"
          "void Svc::helper()\n"
          "{\n"
          "    std::lock_guard<std::mutex> b(mB);\n"
          "}\n"
          "void Svc::g()\n"
          "{\n"
          "    std::lock_guard<std::mutex> b(mB);\n"
          "    std::lock_guard<std::mutex> a(mA);\n"
          "}\n"
          "} // namespace app\n");
    const CallGraph g = t.link();
    EXPECT_TRUE(hasRule(vlint::runGraphRules(g, 3), "lock-order"));
}

// ----------------------------------------------------------- layer-dag

TEST(VlintGraph, IncludeBackEdgeAgainstTheLayeringIsAnError)
{
    Tree t;
    t.add("src/util/helper.hpp",
          "#pragma once\n"
          "#include \"core/campaign.hpp\"\n");
    t.add("src/core/campaign.hpp", "#pragma once\n");
    const CallGraph g = t.link();
    ASSERT_EQ(g.includes.size(), 1u);
    const auto findings = vlint::runGraphRules(g, 3);
    const Finding *f = firstOf(findings, "layer-dag");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->file, "src/util/helper.hpp");
    EXPECT_EQ(f->line, 2);
    EXPECT_NE(f->message.find("src/core/campaign.hpp"),
              std::string::npos);
}

TEST(VlintGraph, DownwardIncludesFollowTheLayering)
{
    Tree t;
    t.add("src/core/campaign.hpp",
          "#pragma once\n"
          "#include \"util/helper.hpp\"\n"
          "#include \"pdn/pdn_sim.hpp\"\n");
    t.add("src/util/helper.hpp", "#pragma once\n");
    t.add("src/pdn/pdn_sim.hpp", "#pragma once\n");
    const CallGraph g = t.link();
    EXPECT_EQ(g.includes.size(), 2u);
    EXPECT_FALSE(hasRule(vlint::runGraphRules(g, 3), "layer-dag"));
}

TEST(VlintGraph, LayerRanksMatchTheDocumentedOrder)
{
    EXPECT_LT(vlint::layerRank("src/util/x.hpp"),
              vlint::layerRank("src/linsys/x.hpp"));
    EXPECT_LT(vlint::layerRank("src/linsys/x.hpp"),
              vlint::layerRank("src/pdn/x.hpp"));
    EXPECT_LT(vlint::layerRank("src/pdn/x.hpp"),
              vlint::layerRank("src/obs/x.hpp"));
    EXPECT_LT(vlint::layerRank("src/obs/x.hpp"),
              vlint::layerRank("src/core/x.hpp"));
    EXPECT_LT(vlint::layerRank("src/core/x.hpp"),
              vlint::layerRank("tools/vlint/x.hpp"));
    EXPECT_EQ(vlint::layerRank("src/pdn/x.hpp"),
              vlint::layerRank("src/power/x.hpp"));
}

// ---------------------------------------------------------- graph JSON

TEST(VlintGraph, GraphJsonCarriesEverySection)
{
    Tree t;
    t.add("src/core/eng.cpp",
          "struct CampaignEngine {\n"
          "    void run()\n"
          "    {\n"
          "        helper();\n"
          "    }\n"
          "};\n"
          "void helper() { }\n");
    const std::string json = vlint::graphJson(t.link());
    for (const char *key :
         {"\"functions\"", "\"includes\"", "\"lock_edges\"",
          "\"roots\"", "\"stats\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
              std::count(json.begin(), json.end(), '}'));
    EXPECT_NE(json.find("CampaignEngine::run"), std::string::npos);
}
