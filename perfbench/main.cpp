/**
 * @file
 * Benchmark child process: one workload, one seed, one mode.
 *
 *   perfbench_vguard --workload NAME --seed N --seconds S
 *                    [--setup-only | --traced [--trace-out FILE]]
 *
 * Untraced mode: set up once (timed), then repeat the body until S
 * seconds have passed, timing each pass; the set-up and every pass are
 * bracketed by the reference kernel, whose seconds run.py scales them
 * by. --setup-only stops after the set-up, so a fresh process can time
 * it cold again. Traced mode: set
 * up with spans, alternate untraced and traced passes for S seconds,
 * run one more traced pass and the layer probe with spans kept, and
 * write the spans out. Either way the last stdout line is one JSON
 * object that run.py aggregates.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/trace_cache.hpp"
#include "perfbench.hpp"

extern char **environ;

namespace perfbench {

Spans::Scope::Scope(Spans &spans, const char *name, double work)
    : spans_(spans)
{
    if (!spans_.on_)
        return;
    Span s;
    s.name = name;
    s.parent = spans_.open_.empty() ? -1 : spans_.open_.back();
    s.work = work;
    index_ = static_cast<int>(spans_.spans_.size());
    spans_.spans_.push_back(std::move(s));
    spans_.open_.push_back(index_);
    spans_.spans_[index_].t0 =
        secondsBetween(spans_.origin_, Clock::now());
}

Spans::Scope::~Scope()
{
    if (index_ < 0)
        return;
    spans_.spans_[index_].t1 = secondsBetween(spans_.origin_, Clock::now());
    spans_.open_.pop_back();
}

void
Spans::Scope::setWork(double work)
{
    if (index_ >= 0)
        spans_.spans_[index_].work = work;
}

double
Spans::seconds(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.t1 - s.t0;
    return sum;
}

double
Spans::work(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.name == name)
            sum += s.work;
    return sum;
}

double
Spans::rootSeconds() const
{
    double sum = 0.0;
    for (const Span &s : spans_)
        if (s.parent < 0)
            sum += s.t1 - s.t0;
    return sum;
}

bool
Spans::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                      "\"args\":{\"work\":%.17g}}",
                      i ? "," : "", s.name.c_str(), s.t0 * 1e6,
                      (s.t1 - s.t0) * 1e6, s.work);
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

namespace {

[[noreturn]] void
die(const char *msg, const char *arg = "")
{
    std::fprintf(stderr, "perfbench: %s%s\n", msg, arg);
    std::exit(2);
}

/**
 * The library reads these once, at first use, and each silently
 * changes the measured work (cycle budgets, cache on/off or size, a
 * warm persistent store), so the benchmark refuses to run under them.
 */
void
refuseOverridingEnvironment()
{
    static const char *const exact[] = {"VGUARD_CYCLES=",
                                        "VGUARD_TRACE_CACHE=",
                                        "VGUARD_TRACE_CACHE_MB="};
    for (char **e = environ; *e; ++e) {
        bool bad = std::strncmp(*e, "VGUARD_TRACE_STORE",
                                std::strlen("VGUARD_TRACE_STORE")) == 0;
        for (const char *p : exact)
            bad = bad || std::strncmp(*e, p, std::strlen(p)) == 0;
        if (bad)
            die("refusing to run: it measures the library defaults, "
                "and this variable changes the measured work; unset "
                "it: ",
                *e);
    }
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/**
 * Fixed, benchmark-owned work timed next to every measured interval.
 * Shared cloud hosts change speed by up to 2x over seconds to minutes
 * (other tenants on the same physical cores); run.py divides each
 * interval by the kernel's seconds around it, i.e. scales it to a
 * nominal host speed. The kernel never calls the library, so library
 * changes cannot move it. Its two loops mix what the simulator does:
 * an interpreter-like dispatch over a cache-resident table (the OoO
 * core), and random reads and writes over 4 MiB feeding a
 * floating-point chain (traces and PDN state).
 */
class ReferenceKernel
{
  public:
    ReferenceKernel() : wide_(1u << 19), narrow_(1u << 15)
    {
        for (size_t i = 0; i < wide_.size(); ++i)
            wide_[i] = i * 0x9e3779b97f4a7c15ull;
        for (size_t i = 0; i < narrow_.size(); ++i)
            narrow_[i] = i * 0x9e3779b97f4a7c15ull;
    }

    /** Host seconds one run of the kernel takes now. */
    double
    seconds()
    {
        const Clock::time_point t0 = Clock::now();
        uint64_t x = 88172645463325252ull;
        uint64_t regs[16] = {};
        double acc = 0.0;
        for (int i = 0; i < 3000000; ++i) {
            x = xorshift(x);
            const uint64_t v = narrow_[(x >> 7) & (narrow_.size() - 1)];
            switch (v & 7) {
              case 0: regs[x & 15] += v; break;
              case 1: regs[(x >> 4) & 15] ^= regs[x & 15]; break;
              case 2:
                acc = acc * 0.999 + static_cast<double>(v & 255);
                break;
              case 3:
                narrow_[x & (narrow_.size() - 1)] = regs[v & 15];
                break;
              case 4: regs[v & 15] = regs[(v >> 4) & 15] * 3 + 1; break;
              case 5:
                acc += 1e-3 * static_cast<double>(regs[x & 15] & 1023);
                break;
              default: regs[x & 15] -= v >> 3; break;
            }
        }
        for (int i = 0; i < 1500000; ++i) {
            x = xorshift(x);
            const uint64_t v = wide_[x & (wide_.size() - 1)];
            acc += static_cast<double>(v & 0xffff) * 1e-3;
            if (v & 1)
                acc *= 0.999999;
            wide_[(x >> 20) & (wide_.size() - 1)] += v;
        }
        const double s = secondsBetween(t0, Clock::now());
        sink_ = acc + static_cast<double>(regs[3]);
        return s;
    }

    /** MiB its tables keep resident from construction on. */
    double
    residentMb() const
    {
        return static_cast<double>((wide_.size() + narrow_.size()) *
                                   sizeof(uint64_t)) /
               (1024.0 * 1024.0);
    }

  private:
    static uint64_t
    xorshift(uint64_t x)
    {
        x ^= x << 13;
        x ^= x >> 7;
        return x ^ (x << 17);
    }

    std::vector<uint64_t> wide_;
    std::vector<uint64_t> narrow_;
    volatile double sink_ = 0.0;
};

/** Mean reference-kernel seconds just before and just after a span. */
class HostSpeed
{
  public:
    explicit HostSpeed(ReferenceKernel &kernel)
        : kernel_(kernel), before_(kernel.seconds())
    {
    }

    double
    around()
    {
        return 0.5 * (before_ + kernel_.seconds());
    }

  private:
    ReferenceKernel &kernel_;
    double before_;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Runs of one pass compared against the first pass's digests. */
struct Checker
{
    std::vector<std::pair<std::string, std::string>> first;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void
    add(const Outcome &o)
    {
        if (first.empty())
            first = o.digests;
        attempted += o.digests.size();
        for (size_t i = 0; i < o.digests.size(); ++i) {
            const bool drift = i >= first.size() ||
                               first[i] != o.digests[i];
            const bool cross =
                std::find(o.crossPathFailures.begin(),
                          o.crossPathFailures.end(),
                          o.digests[i].first) != o.crossPathFailures.end();
            failed += drift || cross;
        }
    }
};

void
printDigests(const Checker &c)
{
    std::printf("\"digests\":{");
    for (size_t i = 0; i < c.first.size(); ++i)
        std::printf("%s%s:%s", i ? "," : "",
                    jsonString(c.first[i].first).c_str(),
                    jsonString(c.first[i].second).c_str());
    std::printf("}");
}

int
runUntraced(Workload &wl, double seconds, bool setupOnly)
{
    Spans off(false);
    // Allocated before the set-up and never freed, so its tables add
    // exactly residentMb() to every later RSS reading.
    ReferenceKernel kernel;
    HostSpeed setupSpeed(kernel);
    const Clock::time_point t0 = Clock::now();
    wl.setup(off);
    const double setupS = secondsBetween(t0, Clock::now());
    const double setupRef = setupSpeed.around();
    if (setupOnly) {
        std::printf("{\"setup_s\":%.9g,\"setup_ref_s\":%.9g}\n", setupS,
                    setupRef);
        return 0;
    }

    Checker check;
    std::vector<double> passSeconds, passCycles, passRss, passRef;
    const Clock::time_point start = Clock::now();
    do {
        HostSpeed speed(kernel);
        const Clock::time_point p0 = Clock::now();
        const Outcome o = wl.body(off);
        passSeconds.push_back(secondsBetween(p0, Clock::now()));
        passRef.push_back(speed.around());
        passCycles.push_back(static_cast<double>(o.cycles));
        passRss.push_back(peakRssMb() - kernel.residentMb());
        check.add(o);
    } while (secondsBetween(start, Clock::now()) < seconds);

    for (const std::string &name : wl.verify()) {
        ++check.attempted;
        ++check.failed;
        std::fprintf(stderr, "perfbench: verify failed: %s\n",
                     name.c_str());
    }
    const double err = table3ErrorMv();

    // Each pass: [seconds, simulated cycles, peak RSS so far in MiB,
    // reference-kernel seconds around the pass].
    std::printf("{\"setup_s\":%.9g,\"setup_ref_s\":%.9g,"
                "\"table3_err_mv\":%.17g,\"passes\":[",
                setupS, setupRef, err);
    for (size_t i = 0; i < passSeconds.size(); ++i)
        std::printf("%s[%.9g,%.17g,%.9g,%.9g]", i ? "," : "",
                    passSeconds[i], passCycles[i], passRss[i], passRef[i]);
    std::printf("],\"attempted\":%llu,\"failed\":%llu,",
                static_cast<unsigned long long>(check.attempted),
                static_cast<unsigned long long>(check.failed));
    printDigests(check);
    std::printf("}\n");
    return 0;
}

int
runTraced(Workload &wl, double seconds, const std::string &traceOut)
{
    Spans spans(true);
    Spans off(false);
    double tracedWall = 0.0;

    Clock::time_point t = Clock::now();
    wl.setup(spans);
    tracedWall += secondsBetween(t, Clock::now());

    // Untraced and traced passes alternate so the overhead estimate
    // sees the same host load on both sides; only the last traced
    // pass (below) keeps its spans.
    Checker check;
    std::vector<double> untraced, tracedPasses;
    const Clock::time_point start = Clock::now();
    do {
        t = Clock::now();
        check.add(wl.body(off));
        untraced.push_back(secondsBetween(t, Clock::now()));
        Spans scratch(true);
        t = Clock::now();
        check.add(wl.body(scratch));
        tracedPasses.push_back(secondsBetween(t, Clock::now()));
    } while (secondsBetween(start, Clock::now()) < seconds);

    auto &cache = vguard::core::TraceCache::instance();
    const uint64_t hits0 = cache.hits(), misses0 = cache.misses(),
                   captures0 = cache.captures();
    t = Clock::now();
    Outcome traced = wl.body(spans);
    tracedPasses.push_back(secondsBetween(t, Clock::now()));
    tracedWall += tracedPasses.back();
    check.add(traced);
    const uint64_t hits = cache.hits() - hits0;
    const uint64_t misses = cache.misses() - misses0;
    const uint64_t captures = cache.captures() - captures0;
    const size_t cacheBytes = cache.bytes();

    t = Clock::now();
    Outcome probe;
    probeLayers(wl.probeInputs(), spans, probe);
    tracedWall += secondsBetween(t, Clock::now());

    if (!traceOut.empty() && !spans.writeChromeJson(traceOut))
        die("cannot write trace file ", traceOut.c_str());

    auto nsPer = [&](const char *name) {
        const double w = spans.work(name);
        return w > 0.0 ? 1e9 * spans.seconds(name) / w : 0.0;
    };
    const uint64_t requests = traced.gateRequests + probe.gateRequests;
    const uint64_t denials = traced.gateDenials + probe.gateDenials;
    const std::map<std::string, double> m{
        {"workloads.calibrate_s", spans.seconds("workloads.calibrate")},
        {"workloads.proxy_build_s", spans.seconds("workloads.proxy_build")},
        {"core.reference_s", spans.seconds("core.reference")},
        {"core.thresholds_s", spans.seconds("core.thresholds")},
        {"core.threshold_solves",
         static_cast<double>(vguard::core::thresholdSolveCount())},
        {"core.campaign.run_s", spans.seconds("core.campaign.run")},
        {"core.campaign.export_s", spans.seconds("core.campaign.export")},
        {"core.trace_cache.captures", static_cast<double>(captures)},
        {"core.trace_cache.hit_ratio",
         hits + misses ? static_cast<double>(hits) /
                             static_cast<double>(hits + misses)
                       : 0.0},
        {"core.trace_cache.bytes", static_cast<double>(cacheBytes)},
        {"core.voltage_sim.capture_ns_per_cycle",
         nsPer("core.voltage_sim.capture")},
        {"core.voltage_sim.replay_ns_per_cycle",
         nsPer("core.voltage_sim.replay")},
        {"core.voltage_sim.closed_loop_ns_per_cycle",
         nsPer("core.voltage_sim.closed_loop")},
        {"cpu.core_ns_per_cycle", nsPer("cpu.core")},
        {"power.current_ns_per_cycle", nsPer("power.current_block")},
        {"pdn.step_ns_per_cycle", nsPer("pdn.step_many")},
        {"core.bookkeeping_ns_per_cycle",
         nsPer("core.voltage_sim.replay") - nsPer("pdn.step_many")},
        {"obs.events.episodes", static_cast<double>(traced.episodes)},
        {"core.replay_sweep.ns_per_lane_cycle", nsPer("core.replay_sweep")},
        {"pdn.backend.step_shared_ns_per_lane_cycle",
         nsPer("pdn.backend.step_shared")},
        {"core.multicore.open_ns_per_chip_cycle",
         nsPer("core.multicore.open")},
        {"core.multicore.governed_ns_per_chip_cycle",
         nsPer("core.multicore.governed")},
        {"pdn.backend.step_per_lane_ns_per_lane_cycle",
         nsPer("pdn.backend.step_per_lane")},
        {"core.chip_governor.denial_ratio",
         requests ? static_cast<double>(denials) /
                        static_cast<double>(requests)
                  : 0.0},
        {"trace.coverage", spans.rootSeconds() / tracedWall},
        {"trace.overhead_frac",
         median(tracedPasses) / median(untraced) - 1.0},
    };

    std::printf("{\"layers\":{");
    bool firstKey = true;
    for (const auto &[k, v] : m) {
        std::printf("%s%s:%.17g", firstKey ? "" : ",",
                    jsonString(k).c_str(), v);
        firstKey = false;
    }
    std::printf("},\"pass_count\":%zu,\"attempted\":%llu,"
                "\"failed\":%llu,",
                untraced.size() + tracedPasses.size(),
                static_cast<unsigned long long>(check.attempted),
                static_cast<unsigned long long>(check.failed));
    printDigests(check);
    std::printf("}\n");
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload, traceOut;
    uint64_t seed = 1;
    double seconds = 1.0;
    bool traced = false, setupOnly = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                die("missing value for ", a.c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workload = value();
        else if (a == "--seed")
            seed = std::strtoull(value(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(value(), nullptr);
        else if (a == "--trace-out")
            traceOut = value();
        else if (a == "--traced")
            traced = true;
        else if (a == "--setup-only")
            setupOnly = true;
        else
            die("unknown argument ", a.c_str());
    }
    refuseOverridingEnvironment();
    const auto wl = makeWorkload(workload, seed);
    if (!wl)
        die("unknown workload ", workload.c_str());
    if (!(seconds > 0.0))
        die("--seconds must be positive");
    try {
        return traced ? runTraced(*wl, seconds, traceOut)
                      : runUntraced(*wl, seconds, setupOnly);
    } catch (const std::exception &e) {
        die("workload threw: ", e.what());
    }
}
