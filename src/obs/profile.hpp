/**
 * @file
 * Lightweight phase profiler for campaign runs.
 *
 * Answers "where did the campaign spend its wall-clock time" — cpu
 * stepping, power accounting, the PDN state-space step, sensor/
 * actuator control — without perturbing the simulation:
 *
 *  - ScopedTimer is RAII around one phase; constructed with a nullptr
 *    profiler it compiles to two branches, so the disabled hot path
 *    costs (almost) nothing;
 *  - the Profiler *samples*: only cycles where (cycle & mask) == 0
 *    are timed (default 1-in-64), bounding overhead well under the
 *    5% acceptance budget while keeping per-phase shares accurate;
 *  - ProfileData merges associatively, so per-run profiles combine
 *    into a campaign total in submission order.
 *
 * Determinism rule: wall-clock values are inherently nondeterministic
 * and therefore NEVER flow into the deterministic campaign JSONL —
 * they are exported only in the `--stats-json` profile section, which
 * is documented as machine-dependent (see DESIGN.md §6).
 */

#ifndef VGUARD_OBS_PROFILE_HPP
#define VGUARD_OBS_PROFILE_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

namespace vguard::obs {

/** The instrumented simulator phases. */
enum class Phase : uint8_t {
    CpuStep,     ///< OoOCore::cycle()
    Power,       ///< WattchModel::power() / current()
    Pdn,         ///< PDN state-space step
    Control,     ///< sensor observe + controller/actuator apply
    Events,      ///< emergency tracking + activity window
};

constexpr size_t kNumPhases = 5;

/** Snake_case phase name (JSON key). */
const char *phaseName(size_t phase);

/** Accumulated per-phase samples; merges associatively. */
struct ProfileData
{
    std::array<uint64_t, kNumPhases> ns{};       ///< sampled time
    std::array<uint64_t, kNumPhases> samples{};  ///< sampled intervals
    uint64_t cyclesTotal = 0;    ///< cycles the run simulated
    uint64_t cyclesSampled = 0;  ///< cycles that were timed

    bool
    empty() const
    {
        for (uint64_t s : samples)
            if (s)
                return false;
        return cyclesTotal == 0;
    }

    void merge(const ProfileData &other);

    /** Render as one JSON object (phases + sampling metadata). */
    std::string json() const;
};

class Profiler;

/**
 * RAII timer for one phase. A nullptr profiler (profiling disabled or
 * cycle not sampled) makes both constructor and destructor trivial.
 */
class ScopedTimer
{
  public:
    ScopedTimer(Profiler *p, Phase phase) : p_(p), phase_(phase)
    {
        if (p_)
            start_ = std::chrono::steady_clock::now();
    }

    ~ScopedTimer();

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    Profiler *p_;
    Phase phase_;
    std::chrono::steady_clock::time_point start_{};
};

/**
 * Per-run profiler. Not thread-safe — each campaign run owns one (the
 * engine's runs never share simulator state across threads).
 */
class Profiler
{
  public:
    /** @param sampleShift sample 1 in 2^shift cycles (default 64). */
    explicit Profiler(unsigned sampleShift = 6)
        : mask_((uint64_t{1} << sampleShift) - 1)
    {
    }

    /**
     * Returns this (sample the cycle) or nullptr (skip); also counts
     * the cycle. Pass the result to ScopedTimer.
     */
    Profiler *
    beginCycle(uint64_t cycle)
    {
        ++data_.cyclesTotal;
        if ((cycle & mask_) != 0)
            return nullptr;
        ++data_.cyclesSampled;
        return this;
    }

    /**
     * Account a whole block of cycles whose phase work ran inside
     * block-level ScopedTimers (the batched open-loop/replay pipeline
     * of core/voltage_sim). Every cycle's work was timed, so the block
     * counts as both simulated and sampled.
     */
    void
    countBlock(uint64_t cycles)
    {
        data_.cyclesTotal += cycles;
        data_.cyclesSampled += cycles;
    }

    void
    record(Phase phase, uint64_t nanos)
    {
        data_.ns[size_t(phase)] += nanos;
        ++data_.samples[size_t(phase)];
    }

    const ProfileData &data() const { return data_; }

    void clear() { data_ = ProfileData{}; }

  private:
    uint64_t mask_;
    ProfileData data_;
};

inline
ScopedTimer::~ScopedTimer()
{
    if (!p_)
        return;
    const auto end = std::chrono::steady_clock::now();
    p_->record(phase_,
               uint64_t(std::chrono::duration_cast<
                            std::chrono::nanoseconds>(end - start_)
                            .count()));
}

/** Simple wall-clock stopwatch (whole-campaign timing). */
class StopWatch
{
  public:
    StopWatch() : start_(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start_;
};

} // namespace vguard::obs

#endif // VGUARD_OBS_PROFILE_HPP
