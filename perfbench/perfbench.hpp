/**
 * @file
 * Shared pieces of the end-to-end benchmark: the in-memory span
 * recorder, the per-iteration outcome the correctness checks read, and
 * the workload interface.
 *
 * Spans are recorded only from this directory's code, around the calls
 * it makes into the library's public API; the library's own tracer
 * stays off, as it is for a user's artifact run.
 */

#ifndef VGUARD_PERFBENCH_PERFBENCH_HPP
#define VGUARD_PERFBENCH_PERFBENCH_HPP

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/program.hpp"
#include "pdn/package_model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Single-threaded span recorder; every call is a no-op when off. */
class Spans
{
  public:
    struct Span
    {
        std::string name;
        int parent = -1;   ///< index of the enclosing span, -1 = root
        double t0 = 0.0;   ///< seconds since the recorder was created
        double t1 = 0.0;
        double work = 0.0; ///< units of work done inside (cycles, ...)
    };

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(Spans &spans, const char *name, double work = 0.0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Set the work count once it is known (e.g. cycles run). */
        void setWork(double work);

      private:
        Spans &spans_;
        int index_ = -1;
    };

    explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}

    /** Summed duration [s] and work of every span called @p name. */
    double seconds(const std::string &name) const;
    double work(const std::string &name) const;
    /** Summed duration of the root spans (they never overlap). */
    double rootSeconds() const;

    /** Chrome trace-event JSON (opens in Perfetto). */
    bool writeChromeJson(const std::string &path) const;

  private:
    bool on_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** What one body iteration produced, for the checks and metrics. */
struct Outcome
{
    /** Simulated cycles: core-, lane- or chip-cycles (workload doc). */
    uint64_t cycles = 0;
    /** (run name, result digest), one per simulation run. */
    std::vector<std::pair<std::string, std::string>> digests;
    /** Run names that failed a cross-path check in this iteration. */
    std::vector<std::string> crossPathFailures;
    /** Emergency episodes logged by the iteration's VoltageSim runs. */
    uint64_t episodes = 0;
    /** Governed-chip gate requests and denials. */
    uint64_t gateRequests = 0;
    uint64_t gateDenials = 0;
};

/** Inputs the layer probe drives each layer with (see probe.cpp). */
struct ProbeInputs
{
    std::vector<vguard::isa::Program> programs;
    /** Package lanes of the workload (backend and sweep legs). */
    std::vector<vguard::pdn::PackageParams> lanes;
    unsigned delayCycles = 2;  ///< sensor delay of the closed-loop leg
    uint64_t cycles = 20000;   ///< cycles per program and leg
};

/** One named workload: set-up once, then a repeatable timed body. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** One-off set-up (calibration, references, programs, ...). */
    virtual void setup(Spans &spans) = 0;
    /** One timed pass of the workload's artifact work. */
    virtual Outcome body(Spans &spans) = 0;
    /**
     * Untimed checks too costly for every iteration, run once after
     * the timed loop; returns the names of runs that failed.
     */
    virtual std::vector<std::string> verify() { return {}; }
    /** The workload's own inputs for the layer probe. */
    virtual ProbeInputs probeInputs() const = 0;
};

/** Build a workload by name; nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed);

/**
 * Mean absolute error [mV] of the solved Table-3 safe windows at
 * delays 0/2/4/6 (200 % package) against the paper's 94/57/51/41 mV.
 */
double table3ErrorMv();

/**
 * Drive every per-cycle layer with @p in, spanning each call; adds
 * governed-chip gate counts to @p out.
 */
void probeLayers(const ProbeInputs &in, Spans &spans, Outcome &out);

} // namespace perfbench

#endif // VGUARD_PERFBENCH_PERFBENCH_HPP
