#include "workloads/stressmark.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "cpu/core.hpp"
#include "power/wattch.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace vguard::workloads {

using isa::Program;
using isa::ProgramBuilder;

namespace {

// Operand patterns that maximise datapath toggling (paper: "operand
// values are chosen to produce the maximum possible transition
// activity").
constexpr int64_t kPatternA = 0x5555555555555555ll;
constexpr int64_t kPatternB = static_cast<int64_t>(0xaaaaaaaaaaaaaaaaull);

} // namespace

Program
StressmarkBuilder::build(const StressmarkParams &p)
{
    if (p.divChain == 0)
        fatal("StressmarkBuilder: divChain must be >= 1");

    ProgramBuilder b;
    // r4: data pointer; r1/r2: toggle patterns; r20: iteration count;
    // r21: constant 1; r15: burst tail (loop-carried dependence);
    // f2: divisor chosen to keep values finite.
    //
    // Like the paper's Fig. 8 (dotted dependence arrows), the burst is
    // data-dependent on the divide chain, and — crucial on a 256-entry
    // out-of-order window — the *next* iteration's divide phase is made
    // dependent on this iteration's burst tail, so the machine cannot
    // overlap the quiet and busy phases and flatten the square wave.
    b.ldiq(4, 0x10000)
        .ldiq(1, kPatternA)
        .ldiq(2, kPatternB)
        .ldiq(21, 1)
        .ldiq(15, 1)
        .ldiq(20, static_cast<int64_t>(p.iterations))
        .ldit(2, 1.0009765625) // dense mantissa divisor
        .ldit(1, 1.9990234375)
        .stt(1, 4, 0);

    b.label("loop");

    // ---- low-current phase: serialised divides (Fig. 8 head) ------
    // The address feeding the divide chain is routed through the
    // previous burst's tail register (value-preserving: r16 == 0).
    b.and_(16, 15, 31);   // r16 = r15 & 0 = 0, depends on the tail
    b.addq(17, 4, 16);    // r17 = data pointer
    b.ldt(1, 17, 0);
    b.divt(3, 1, 2);
    for (unsigned i = 1; i < p.divChain; ++i)
        b.divt(3, 3, 2);

    // ---- Fig. 8 store/reload/cmov spine ----------------------------
    b.stt(3, 4, 8);
    b.ldq(7, 4, 8);
    b.cmovne(3, 7, 2);    // r3: burst trigger, carries the div result

    // ---- high-current phase: dense burst gated on r3 ---------------
    for (unsigned i = 0; i < p.burstStores; ++i)
        b.stq(3, 4, 16 + 8 * static_cast<int64_t>(i));
    for (unsigned i = 0; i < p.burstAlu; ++i) {
        const unsigned rd = 8 + (i % 7); // r8..r14
        if (i % 2)
            b.xor_(rd, 3, 2);
        else
            b.addq(rd, 3, 1);
    }
    b.xor_(15, 3, 14);    // tail: issues last, closes the phase

    b.subq(20, 20, 21);
    b.bne(20, "loop");
    b.halt();
    return b.build();
}

double
StressmarkBuilder::measurePeriod(const StressmarkParams &params,
                                 const cpu::CpuConfig &cfg,
                                 uint64_t cycles)
{
    cpu::OoOCore core(cfg, build(params));

    // Warm up for half of the budget (the cold-start I-misses alone
    // take several thousand cycles), then measure committed loop
    // branches per cycle.
    const uint64_t warm = cycles / 2;
    while (core.now() < warm && !core.halted())
        core.cycle();
    const uint64_t startBranches = core.stats().branches;
    const uint64_t startCycle = core.now();
    while (core.now() < cycles && !core.halted())
        core.cycle();
    const uint64_t iters = core.stats().branches - startBranches;
    if (iters == 0)
        return 1e9; // degenerate; never chosen by the calibrator
    return static_cast<double>(core.now() - startCycle) /
           static_cast<double>(iters);
}

StressmarkCalibration
StressmarkBuilder::calibrate(unsigned targetPeriodCycles,
                             const cpu::CpuConfig &cfg)
{
    if (targetPeriodCycles < 8)
        fatal("StressmarkBuilder::calibrate: period %u too short",
              targetPeriodCycles);

    // The divide chain sets the low-phase length (~fpDivLat cycles per
    // dependent divt); the burst must then fill the *other* half
    // period with dense work — 8-wide, that is several ops per cycle
    // for ~period/2 cycles. Search a grid around the analytic guess,
    // like the paper's hand tuning, preferring (a) period match and
    // (b) the largest current swing among near-ties.
    const unsigned divGuess = std::max(
        1u, static_cast<unsigned>(std::lround(
                targetPeriodCycles / 2.0 / cfg.fpDivLat)));
    const unsigned aluGuess = 3 * targetPeriodCycles;

    std::vector<StressmarkParams> grid;
    for (unsigned divChain = std::max(1u, divGuess - 1);
         divChain <= divGuess + 1; ++divChain) {
        for (unsigned stores = 8; stores <= 32; stores += 8) {
            for (unsigned alu = aluGuess / 4; alu <= 2 * aluGuess;
                 alu += std::max(4u, aluGuess / 6)) {
                StressmarkParams p;
                p.divChain = divChain;
                p.burstStores = stores;
                p.burstAlu = alu;
                grid.push_back(p);
            }
        }
    }

    // Every candidate is an independent full-core run, so the grid
    // runs on a small pool, each period into its own grid slot. The
    // cap bounds the pool's peak RSS (DESIGN.md §5, "Stressmark
    // calibration").
    constexpr unsigned kMaxThreads = 8;
    const unsigned threads = std::clamp(
        std::thread::hardware_concurrency(), 1u, kMaxThreads);
    std::vector<double> periods(grid.size());
    parallelFor(grid.size(), threads, [&](size_t i) {
        periods[i] = measurePeriod(grid[i], cfg, 40000);
    });

    // The argmin stays serial, in grid order, with a strict '<': the
    // first of equal scores wins, so the winner does not depend on
    // which worker measured what.
    StressmarkCalibration best;
    best.gridPoints = static_cast<unsigned>(grid.size());
    double bestScore = 1e18;
    for (size_t i = 0; i < grid.size(); ++i) {
        const StressmarkParams &p = grid[i];
        // Period error dominates; a mild bonus rewards bigger bursts
        // (larger dI/dt swing) among near-ties.
        const double score =
            std::fabs(periods[i] - targetPeriodCycles) -
            0.002 * (p.burstAlu + 4.0 * p.burstStores);
        if (score < bestScore) {
            bestScore = score;
            best.params = p;
            best.measuredPeriodCycles = periods[i];
        }
    }

    // Characterise the winner's current phases.
    cpu::OoOCore core(cfg, build(best.params));
    power::WattchModel power(power::PowerConfig{}, cfg);
    std::vector<double> amps;
    amps.reserve(60000);
    while (core.now() < 60000 && !core.halted())
        amps.push_back(power.current(core.cycle()));
    std::sort(amps.begin(), amps.end());
    const size_t q = amps.size() / 4;
    double lo = 0.0, hi = 0.0;
    for (size_t i = 0; i < q; ++i) {
        lo += amps[i];
        hi += amps[amps.size() - 1 - i];
    }
    best.lowPhaseCurrentA = lo / q;
    best.highPhaseCurrentA = hi / q;
    return best;
}

} // namespace vguard::workloads
