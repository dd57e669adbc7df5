/**
 * @file
 * Seeded random inputs shared by the pipeline fuzz lanes and the
 * cycle-exact core golden:
 *
 *  - randomProgram(): a few counted loops over blocks of random
 *    arithmetic, memory traffic and calls; always terminates;
 *  - RandomInterference: a random gate/phantom/throttle schedule of
 *    actuator commands.
 *
 * The same seed always yields the same program and the same schedule.
 */

#ifndef VGUARD_TESTS_FUZZ_INPUTS_HPP
#define VGUARD_TESTS_FUZZ_INPUTS_HPP

#include <cstdint>
#include <cstdio>

#include "cpu/core.hpp"
#include "isa/program.hpp"
#include "util/rng.hpp"

namespace vguard::fuzz {

/** Structured random program (see the file comment). */
inline isa::Program
randomProgram(uint64_t seed)
{
    Rng rng(seed);
    isa::ProgramBuilder b;

    // Fixed scaffolding registers: r1 data pointer, r2 const 1,
    // r3.. scratch pool, r20/r21 loop counters.
    b.ldiq(1, 0x20000).ldiq(2, 1);
    for (unsigned r = 3; r <= 14; ++r)
        b.ldiq(r, static_cast<int64_t>(rng.next() >> 8));
    for (unsigned f = 1; f <= 6; ++f)
        b.ldit(f, 1.0 + 0.25 * static_cast<double>(f));

    const unsigned loops = 1 + rng.below(3);
    unsigned label = 0;
    bool emittedCallee = false;

    for (unsigned l = 0; l < loops; ++l) {
        const unsigned iters = 2 + rng.below(30);
        const unsigned counter = 20 + (l % 2);
        char top[16];
        std::snprintf(top, sizeof(top), ".L%u", label++);
        b.ldiq(counter, iters);
        b.label(top);

        const unsigned blockLen = 4 + rng.below(24);
        for (unsigned i = 0; i < blockLen; ++i) {
            const unsigned rd = 3 + rng.below(12);
            const unsigned ra = 3 + rng.below(12);
            const unsigned rb = 3 + rng.below(12);
            switch (rng.below(12)) {
              case 0: b.addq(rd, ra, rb); break;
              case 1: b.subq(rd, ra, rb); break;
              case 2: b.xor_(rd, ra, rb); break;
              case 3: b.and_(rd, ra, rb); break;
              case 4: b.mulq(rd, ra, rb); break;
              case 5: b.divq(rd, ra, rb); break;
              case 6: b.cmovne(rd, ra, rb); break;
              case 7:
                b.ldq(rd, 1, 8 * static_cast<int64_t>(rng.below(64)));
                break;
              case 8:
                b.stq(ra, 1, 8 * static_cast<int64_t>(rng.below(64)));
                break;
              case 9: {
                const unsigned fd = 1 + rng.below(8);
                const unsigned fa = 1 + rng.below(8);
                if (rng.chance(0.5))
                    b.addt(fd, fa, 2);
                else
                    b.mult(fd, fa, 1);
                break;
              }
              case 10:
                b.ldt(1 + rng.below(8), 1,
                      8 * static_cast<int64_t>(rng.below(64)));
                break;
              default:
                b.stt(1 + rng.below(8), 1,
                      8 * static_cast<int64_t>(rng.below(64)));
                break;
            }
        }
        if (rng.chance(0.5)) {
            b.call("callee");
            emittedCallee = true;
        }
        b.subq(counter, counter, 2);
        b.bne(counter, top);
    }
    b.halt();
    if (emittedCallee) {
        b.label("callee").xor_(15, 3, 4).addq(16, 15, 2).ret();
    } else {
        // Keep the label table stable for determinism checks.
        b.label("callee").ret();
    }
    return b.build();
}

/**
 * Random actuator interference: before each cycle, either lift every
 * gate, phantom and issue cap (5 %, and at the latest 300 cycles after
 * the last lift, so nothing is gated forever), or apply random
 * FU/DL1/IL1 gates, FU phantom firing and an issue cap of 0-8 (5 %).
 */
class RandomInterference
{
  public:
    explicit RandomInterference(uint64_t seed) : rng_(seed) {}

    /** Set @p core's actuator commands for its next cycle. */
    void
    apply(cpu::OoOCore &core)
    {
        if (cyclesSinceLift_ > 300 || rng_.chance(0.05)) {
            core.setGates({});
            core.setPhantom({});
            core.setIssueLimit(~0u);
            cyclesSinceLift_ = 0;
        } else if (rng_.chance(0.05)) {
            core.setGates({rng_.chance(0.5), rng_.chance(0.5),
                           rng_.chance(0.5)});
            core.setPhantom({rng_.chance(0.3), false, false});
            core.setIssueLimit(static_cast<unsigned>(rng_.below(9)));
        }
        ++cyclesSinceLift_;
    }

  private:
    Rng rng_;
    uint64_t cyclesSinceLift_ = 0;
};

} // namespace vguard::fuzz

#endif // VGUARD_TESTS_FUZZ_INPUTS_HPP
