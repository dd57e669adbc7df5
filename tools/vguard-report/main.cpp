/**
 * @file
 * vguard-report: one CLI over the campaign's observability artifacts.
 *
 * The campaign drivers emit several machine-readable files per run —
 * a stats JSON document (--stats-json), an emergency-events JSONL
 * stream (--events-jsonl), a Chrome trace-event export (--trace) —
 * and the bench harnesses write BENCH_*.json[l] performance
 * artifacts. Before this tool, CI validated each with its own ad-hoc
 * jq/python snippet; this binary replaces those with three audited
 * subcommands built on the in-tree JSON parser (util/json_parse):
 *
 *   report          merge stats + events + trace into a single
 *                   markdown run report (plus optional JSON summary)
 *   benchdiff       compare bench artifacts against committed
 *                   baselines under a declarative tolerance spec
 *   validate-trace  strict schema check of a Chrome trace-event
 *                   export (the same contract Perfetto relies on)
 *
 * Exit codes: 0 ok, 1 check failed, 2 usage/IO error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/json_parse.hpp"

using vguard::JsonValue;
using vguard::parseJson;

namespace {

// ----------------------------------------------------------- helpers

int
usage()
{
    std::fprintf(
        stderr,
        "usage: vguard-report <subcommand> ...\n"
        "  report [--stats F] [--events F] [--trace F]\n"
        "         [--out F.md] [--json F.json]\n"
        "  benchdiff --spec F [--dir D]\n"
        "  validate-trace FILE\n");
    return 2;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    out = buf.str();
    return true;
}

/** Parse @p path as one JSON document; exits 2 on IO/syntax error. */
JsonValue
loadJson(const std::string &path, const char *what)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "vguard-report: cannot read %s (%s)\n",
                     path.c_str(), what);
        std::exit(2);
    }
    JsonValue v;
    std::string err;
    if (!parseJson(text, v, err)) {
        std::fprintf(stderr, "vguard-report: %s: bad JSON: %s\n",
                     path.c_str(), err.c_str());
        std::exit(2);
    }
    return v;
}

/** Parse @p path as JSONL; blank lines skipped; exits 2 on error. */
std::vector<JsonValue>
loadJsonl(const std::string &path, const char *what)
{
    std::string text;
    if (!readFile(path, text)) {
        std::fprintf(stderr, "vguard-report: cannot read %s (%s)\n",
                     path.c_str(), what);
        std::exit(2);
    }
    std::vector<JsonValue> lines;
    size_t start = 0;
    int lineno = 0;
    while (start < text.size()) {
        size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        ++lineno;
        const std::string_view line(text.data() + start, end - start);
        start = end + 1;
        if (line.empty())
            continue;
        JsonValue v;
        std::string err;
        if (!parseJson(line, v, err)) {
            std::fprintf(stderr,
                         "vguard-report: %s:%d: bad JSONL: %s\n",
                         path.c_str(), lineno, err.c_str());
            std::exit(2);
        }
        lines.push_back(std::move(v));
    }
    return lines;
}

/** Directory prefix of @p path including the trailing slash. */
std::string
dirOf(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash + 1);
}

double
numberAt(const JsonValue &obj, std::string_view key, double fallback)
{
    const JsonValue *v = obj.find(key);
    return v && v->isNumber() ? v->number : fallback;
}

// ---------------------------------------------------- validate-trace

/**
 * Strict structural check of a Chrome trace-event export. The
 * contract mirrors what obs::Tracer::chromeJson() promises and what
 * Perfetto's legacy JSON importer requires: a top-level object with a
 * "traceEvents" array whose elements carry ph/pid/tid/name, complete
 * events carry ts+dur, instants carry s, counters carry a numeric
 * args.value, and metadata rows name their thread.
 */
int
cmdValidateTrace(const std::string &path)
{
    const JsonValue doc = loadJson(path, "trace");
    if (!doc.isObject()) {
        std::fprintf(stderr, "%s: top level is not an object\n",
                     path.c_str());
        return 1;
    }
    const JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray()) {
        std::fprintf(stderr, "%s: missing traceEvents array\n",
                     path.c_str());
        return 1;
    }
    size_t spans = 0, instants = 0, counters = 0, meta = 0;
    for (size_t i = 0; i < events->items.size(); ++i) {
        const JsonValue &ev = events->items[i];
        auto bad = [&](const char *why) {
            std::fprintf(stderr, "%s: traceEvents[%zu]: %s\n",
                         path.c_str(), i, why);
            return 1;
        };
        if (!ev.isObject())
            return bad("not an object");
        const JsonValue *ph = ev.find("ph");
        if (!ph || !ph->isString() || ph->str.size() != 1)
            return bad("missing one-char ph");
        const JsonValue *name = ev.find("name");
        if (!name || !name->isString() || name->str.empty())
            return bad("missing name");
        const JsonValue *pid = ev.find("pid");
        const JsonValue *tid = ev.find("tid");
        if (!pid || !pid->isNumber() || !tid || !tid->isNumber())
            return bad("missing numeric pid/tid");
        const JsonValue *args = ev.find("args");
        if (args && !args->isObject())
            return bad("args is not an object");
        switch (ph->str[0]) {
        case 'X': {
            const JsonValue *ts = ev.find("ts");
            const JsonValue *dur = ev.find("dur");
            if (!ts || !ts->isNumber() || !dur || !dur->isNumber())
                return bad("complete event without ts/dur");
            if (dur->number < 0.0)
                return bad("negative dur");
            ++spans;
            break;
        }
        case 'i': {
            const JsonValue *ts = ev.find("ts");
            const JsonValue *scope = ev.find("s");
            if (!ts || !ts->isNumber())
                return bad("instant without ts");
            if (!scope || !scope->isString())
                return bad("instant without scope");
            ++instants;
            break;
        }
        case 'C': {
            const JsonValue *ts = ev.find("ts");
            if (!ts || !ts->isNumber())
                return bad("counter without ts");
            const JsonValue *value =
                args ? args->find("value") : nullptr;
            if (!value || !value->isNumber())
                return bad("counter without numeric args.value");
            ++counters;
            break;
        }
        case 'M': {
            const JsonValue *tn =
                args ? args->find("name") : nullptr;
            if (!tn || !tn->isString())
                return bad("metadata without args.name");
            ++meta;
            break;
        }
        default:
            return bad("unknown ph");
        }
    }
    std::printf("%s: ok (%zu spans, %zu instants, %zu counter "
                "samples, %zu metadata rows)\n",
                path.c_str(), spans, instants, counters, meta);
    return 0;
}

// ------------------------------------------------------------ report

/** Per-span-name rollup from a Chrome trace. */
struct SpanRollup
{
    size_t count = 0;
    double totalUs = 0.0;
};

void
mdSection(std::string &md, const char *title)
{
    md += "\n## ";
    md += title;
    md += "\n\n";
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

int
cmdReport(int argc, char **argv)
{
    std::string statsPath, eventsPath, tracePath, outPath, jsonPath;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--stats" && (v = value()))
            statsPath = v;
        else if (arg == "--events" && (v = value()))
            eventsPath = v;
        else if (arg == "--trace" && (v = value()))
            tracePath = v;
        else if (arg == "--out" && (v = value()))
            outPath = v;
        else if (arg == "--json" && (v = value()))
            jsonPath = v;
        else
            return usage();
    }
    if (statsPath.empty() && eventsPath.empty() && tracePath.empty()) {
        std::fprintf(stderr,
                     "vguard-report: report needs at least one of "
                     "--stats/--events/--trace\n");
        return 2;
    }

    std::string md = "# vguard run report\n";
    std::string js = "{";
    bool jsFirst = true;
    auto jsKey = [&](const char *key) {
        if (!jsFirst)
            js += ',';
        jsFirst = false;
        js += '"';
        js += key;
        js += "\":";
    };

    // ---- stats JSON: campaign totals + trace-cache counters -------
    if (!statsPath.empty()) {
        const JsonValue doc = loadJson(statsPath, "stats");
        const JsonValue *campaign = doc.find("campaign");
        mdSection(md, "Campaign");
        if (campaign && campaign->isObject()) {
            md += "| metric | value |\n|---|---|\n";
            for (const auto &[k, v] : campaign->members) {
                md += "| " + k + " | ";
                if (v.isNumber())
                    md += v.raw;
                else if (v.isBool())
                    md += v.boolean ? "true" : "false";
                else if (v.isString())
                    md += v.str;
                md += " |\n";
            }
            const double threads = numberAt(doc, "threads", 0.0);
            const double wall = numberAt(doc, "wall_seconds", 0.0);
            if (threads > 0.0)
                md += "| threads | " + fmtDouble(threads) + " |\n";
            if (wall > 0.0)
                md += "| wall_seconds | " + fmtDouble(wall) + " |\n";
        } else {
            md += "(no campaign section)\n";
        }
        const JsonValue *tc = doc.find("trace_cache");
        if (tc && tc->isObject()) {
            mdSection(md, "Trace cache");
            md += "| counter | value |\n|---|---|\n";
            for (const auto &[k, v] : tc->members)
                md += "| " + k + " | " +
                      (v.isNumber()
                           ? v.raw
                           : std::string(v.boolean ? "true"
                                                   : "false")) +
                      " |\n";
        }
        jsKey("campaign");
        // Re-render the subtree raw: numbers keep their exact bytes.
        std::string sub = "{";
        bool first = true;
        if (campaign && campaign->isObject())
            for (const auto &[k, v] : campaign->members) {
                if (!v.isNumber() && !v.isBool())
                    continue;
                if (!first)
                    sub += ',';
                first = false;
                sub += '"' + k + "\":";
                sub += v.isNumber()
                           ? v.raw
                           : std::string(v.boolean ? "true"
                                                   : "false");
            }
        sub += '}';
        js += sub;
    }

    // ---- events JSONL: emergency episode digest -------------------
    if (!eventsPath.empty()) {
        const std::vector<JsonValue> events =
            loadJsonl(eventsPath, "events");
        size_t low = 0, high = 0;
        double worstV = 0.0;
        bool haveWorst = false;
        uint64_t longest = 0;
        std::map<std::string, size_t> byRun;
        for (const JsonValue &ev : events) {
            const JsonValue *kind = ev.find("kind");
            if (kind && kind->isString() && kind->str == "low")
                ++low;
            else
                ++high;
            const JsonValue *v = ev.find("v_extreme");
            if (v && v->isNumber() &&
                (!haveWorst || v->number < worstV)) {
                worstV = v->number;
                haveWorst = true;
            }
            const JsonValue *dur = ev.find("duration");
            if (dur && dur->isNumber())
                longest = std::max(
                    longest, static_cast<uint64_t>(dur->number));
            const JsonValue *run = ev.find("name");
            if (run && run->isString())
                ++byRun[run->str];
        }
        mdSection(md, "Emergency episodes");
        md += "| metric | value |\n|---|---|\n";
        md += "| episodes | " + std::to_string(events.size()) + " |\n";
        md += "| low | " + std::to_string(low) + " |\n";
        md += "| high | " + std::to_string(high) + " |\n";
        md += "| longest (cycles) | " + std::to_string(longest) +
              " |\n";
        if (haveWorst)
            md += "| worst v_extreme | " + fmtDouble(worstV) + " |\n";
        if (!byRun.empty()) {
            md += "\nEpisodes by run:\n\n| run | episodes |\n"
                  "|---|---|\n";
            for (const auto &[run, n] : byRun)
                md += "| " + run + " | " + std::to_string(n) + " |\n";
        }
        jsKey("events");
        js += "{\"episodes\":" + std::to_string(events.size()) +
              ",\"low\":" + std::to_string(low) +
              ",\"high\":" + std::to_string(high) +
              ",\"longest\":" + std::to_string(longest) + "}";
    }

    // ---- Chrome trace: span/counter rollup ------------------------
    if (!tracePath.empty()) {
        const JsonValue doc = loadJson(tracePath, "trace");
        const JsonValue *events = doc.find("traceEvents");
        if (!events || !events->isArray()) {
            std::fprintf(stderr,
                         "vguard-report: %s: missing traceEvents\n",
                         tracePath.c_str());
            return 2;
        }
        std::map<std::string, SpanRollup> spans;
        std::map<std::string, size_t> instants, counters;
        size_t threads = 0;
        for (const JsonValue &ev : events->items) {
            const JsonValue *ph = ev.find("ph");
            const JsonValue *name = ev.find("name");
            if (!ph || !ph->isString() || !name || !name->isString())
                continue;
            switch (ph->str.empty() ? '?' : ph->str[0]) {
            case 'X': {
                SpanRollup &r = spans[name->str];
                ++r.count;
                r.totalUs += numberAt(ev, "dur", 0.0);
                break;
            }
            case 'i':
                ++instants[name->str];
                break;
            case 'C':
                ++counters[name->str];
                break;
            case 'M':
                ++threads;
                break;
            default:
                break;
            }
        }
        mdSection(md, "Trace");
        md += "| span | count | total us |\n|---|---|---|\n";
        for (const auto &[name, r] : spans)
            md += "| " + name + " | " + std::to_string(r.count) +
                  " | " + fmtDouble(r.totalUs) + " |\n";
        if (!instants.empty()) {
            md += "\n| instant | count |\n|---|---|\n";
            for (const auto &[name, n] : instants)
                md += "| " + name + " | " + std::to_string(n) +
                      " |\n";
        }
        if (!counters.empty()) {
            md += "\n| counter track | samples |\n|---|---|\n";
            for (const auto &[name, n] : counters)
                md += "| " + name + " | " + std::to_string(n) +
                      " |\n";
        }
        const JsonValue *other = doc.find("otherData");
        uint64_t droppedDet = 0, droppedWall = 0;
        if (other && other->isObject()) {
            droppedDet = static_cast<uint64_t>(
                numberAt(*other, "dropped_det", 0.0));
            droppedWall = static_cast<uint64_t>(
                numberAt(*other, "dropped_wall", 0.0));
        }
        md += "\n" + std::to_string(threads) +
              " thread tracks; dropped det=" +
              std::to_string(droppedDet) +
              " wall=" + std::to_string(droppedWall) + "\n";
        jsKey("trace");
        size_t spanEvents = 0;
        for (const auto &[name, r] : spans)
            spanEvents += r.count;
        size_t counterSamples = 0;
        for (const auto &[name, n] : counters)
            counterSamples += n;
        js += "{\"threads\":" + std::to_string(threads) +
              ",\"spans\":" + std::to_string(spanEvents) +
              ",\"counterSamples\":" +
              std::to_string(counterSamples) +
              ",\"droppedDet\":" + std::to_string(droppedDet) +
              ",\"droppedWall\":" + std::to_string(droppedWall) + "}";
    }
    js += "}\n";

    if (!outPath.empty()) {
        std::ofstream out(outPath, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "vguard-report: cannot write %s\n",
                         outPath.c_str());
            return 2;
        }
        out << md;
        std::printf("vguard-report: wrote %s\n", outPath.c_str());
    } else {
        std::fputs(md.c_str(), stdout);
    }
    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "vguard-report: cannot write %s\n",
                         jsonPath.c_str());
            return 2;
        }
        out << js;
        std::printf("vguard-report: wrote %s\n", jsonPath.c_str());
    }
    return 0;
}

// --------------------------------------------------------- benchdiff

/**
 * One metric check from the benchdiff spec. Every field is optional
 * except `metric`; any subset of the bounds may be present:
 *
 *   min / max         numeric floor / ceiling on the current value
 *   equals            exact expected value (bool, number, or string)
 *   equals_baseline   current must equal the committed baseline's
 *                     value (numbers by value: 0.5 == 5e-1; integer
 *                     spellings compare exactly past 2^53)
 *   rel_tol           |cur - base| <= rel_tol * max(|base|, 1e-300)
 */
struct CheckFailures
{
    int failed = 0;
    int passed = 0;

    void fail(const std::string &entry, const std::string &what)
    {
        ++failed;
        std::printf("FAIL [%s] %s\n", entry.c_str(), what.c_str());
    }
    void pass() { ++passed; }
};

std::string
valueRepr(const JsonValue &v)
{
    if (v.isNumber())
        return v.raw;
    if (v.isBool())
        return v.boolean ? "true" : "false";
    if (v.isString())
        return v.str;
    return "<non-scalar>";
}

bool
scalarsEqual(const JsonValue &a, const JsonValue &b)
{
    if (a.kind != b.kind)
        return false;
    // By value, not source bytes: a baseline regenerated with a
    // different float formatting (0.5 vs 5e-1) is still the same
    // number. numbersEquivalent keeps >2^53 integers exact.
    if (a.isNumber())
        return numbersEquivalent(a, b);
    if (a.isBool())
        return a.boolean == b.boolean;
    if (a.isString())
        return a.str == b.str;
    return false;
}

/** Apply one check to one (current, baseline) object pair. */
void
applyCheck(const JsonValue &check, const JsonValue &cur,
           const JsonValue *base, const std::string &entry,
           const std::string &prefix, CheckFailures &out)
{
    const JsonValue *metricName = check.find("metric");
    if (!metricName || !metricName->isString()) {
        out.fail(entry, prefix + ": spec check without metric name");
        return;
    }
    const std::string label = prefix.empty()
                                  ? metricName->str
                                  : prefix + "." + metricName->str;
    const JsonValue *curV = cur.find(metricName->str);
    if (!curV) {
        out.fail(entry, label + ": missing in current artifact");
        return;
    }
    bool ok = true;
    std::string why;
    if (const JsonValue *min = check.find("min")) {
        if (!curV->isNumber() || curV->number < min->number) {
            ok = false;
            why = valueRepr(*curV) + " < min " + min->raw;
        }
    }
    if (ok) {
        if (const JsonValue *max = check.find("max")) {
            if (!curV->isNumber() || curV->number > max->number) {
                ok = false;
                why = valueRepr(*curV) + " > max " + max->raw;
            }
        }
    }
    if (ok) {
        if (const JsonValue *eq = check.find("equals")) {
            // `equals` compares numbers by value (the spec author's
            // 8 must match the artifact's 8 however it was printed).
            const bool same =
                eq->isNumber()
                    ? curV->isNumber() && curV->number == eq->number
                    : scalarsEqual(*curV, *eq);
            if (!same) {
                ok = false;
                why = valueRepr(*curV) + " != " + valueRepr(*eq);
            }
        }
    }
    const JsonValue *eqBase = check.find("equals_baseline");
    const JsonValue *relTol = check.find("rel_tol");
    if (ok && (eqBase || relTol)) {
        const JsonValue *baseV =
            base ? base->find(metricName->str) : nullptr;
        if (!baseV) {
            ok = false;
            why = "missing in baseline";
        } else if (eqBase && eqBase->boolean &&
                   !scalarsEqual(*curV, *baseV)) {
            ok = false;
            why = valueRepr(*curV) + " != baseline " +
                  valueRepr(*baseV);
        } else if (relTol) {
            const double tol = relTol->number;
            const double b = baseV->number;
            const double scale =
                std::max(std::fabs(b), 1e-300);
            if (!curV->isNumber() ||
                std::fabs(curV->number - b) > tol * scale) {
                ok = false;
                why = valueRepr(*curV) + " not within rel_tol " +
                      relTol->raw + " of baseline " +
                      valueRepr(*baseV);
            }
        }
    }
    if (ok)
        out.pass();
    else
        out.fail(entry, label + ": " + why);
}

/** Run one spec entry's checks over one (current, baseline) pair. */
void
applyChecks(const JsonValue &entrySpec, const JsonValue &cur,
            const JsonValue *base, const std::string &entry,
            const std::string &prefix, CheckFailures &out)
{
    const JsonValue *checks = entrySpec.find("checks");
    if (!checks || !checks->isArray())
        return;
    for (const JsonValue &check : checks->items)
        applyCheck(check, cur, base, entry, prefix, out);
}

int
cmdBenchdiff(int argc, char **argv)
{
    std::string specPath, dir;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--spec" && (v = value()))
            specPath = v;
        else if (arg == "--dir" && (v = value()))
            dir = v;
        else
            return usage();
    }
    if (specPath.empty())
        return usage();
    if (!dir.empty() && dir.back() != '/')
        dir += '/';
    const std::string specDir = dirOf(specPath);

    const JsonValue spec = loadJson(specPath, "benchdiff spec");
    const JsonValue *entries = spec.find("entries");
    if (!entries || !entries->isArray()) {
        std::fprintf(stderr,
                     "vguard-report: %s: missing entries array\n",
                     specPath.c_str());
        return 2;
    }

    CheckFailures out;
    for (const JsonValue &entrySpec : entries->items) {
        const JsonValue *nameV = entrySpec.find("name");
        const JsonValue *fileV = entrySpec.find("file");
        if (!nameV || !nameV->isString() || !fileV ||
            !fileV->isString()) {
            std::fprintf(stderr,
                         "vguard-report: %s: entry without "
                         "name/file\n",
                         specPath.c_str());
            return 2;
        }
        const std::string name = nameV->str;
        const std::string curPath = dir + fileV->str;
        const JsonValue *baseV = entrySpec.find("baseline");
        const std::string basePath =
            baseV && baseV->isString() ? specDir + baseV->str
                                       : std::string();
        const JsonValue *jsonlV = entrySpec.find("jsonl");
        const bool isJsonl = jsonlV && jsonlV->boolean;

        if (isJsonl) {
            const std::vector<JsonValue> cur =
                loadJsonl(curPath, name.c_str());
            std::vector<JsonValue> base;
            if (!basePath.empty())
                base = loadJsonl(basePath, name.c_str());
            if (!basePath.empty() && cur.size() != base.size()) {
                out.fail(name,
                         "line count " + std::to_string(cur.size()) +
                             " != baseline " +
                             std::to_string(base.size()));
                continue;
            }
            for (size_t i = 0; i < cur.size(); ++i)
                applyChecks(entrySpec, cur[i],
                            i < base.size() ? &base[i] : nullptr,
                            name, "line[" + std::to_string(i) + "]",
                            out);
        } else {
            const JsonValue cur = loadJson(curPath, name.c_str());
            JsonValue base;
            const bool haveBase = !basePath.empty();
            if (haveBase)
                base = loadJson(basePath, name.c_str());
            applyChecks(entrySpec, cur, haveBase ? &base : nullptr,
                        name, "", out);
        }
    }
    std::printf("benchdiff: %d checks passed, %d failed\n",
                out.passed, out.failed);
    return out.failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "validate-trace") {
        if (argc != 3)
            return usage();
        return cmdValidateTrace(argv[2]);
    }
    if (cmd == "report")
        return cmdReport(argc - 2, argv + 2);
    if (cmd == "benchdiff")
        return cmdBenchdiff(argc - 2, argv + 2);
    return usage();
}
