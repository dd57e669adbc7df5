/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * A small, fast 64-bit generator (SplitMix64 seeded xoshiro256**) with
 * convenience draws used across the library: uniform doubles, bounded
 * integers and Bernoulli trials. The paper's Section 4.5 sensor-error
 * model is *bounded* white error and uses the uniform interval draw
 * (core/sensor.hpp).
 *
 * All simulations in vguard are reproducible: every stochastic component
 * takes an explicit seed.
 */

#ifndef VGUARD_UTIL_RNG_HPP
#define VGUARD_UTIL_RNG_HPP

#include <cstdint>

namespace vguard {

/**
 * One step of the SplitMix64 stream: advances @p state by the golden
 * ratio and returns the mixed draw. The canonical seed expander; also
 * used to derive independent per-run seeds from a campaign seed.
 */
constexpr uint64_t
splitmix64Next(uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ull;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * Deterministic per-run seed: the (index+1)-th independent stream off
 * @p campaignSeed. Two different indices (or campaign seeds) give
 * decorrelated noise streams, and the mapping is pure — the same
 * (campaignSeed, index) always yields the same run seed, regardless of
 * which thread executes the run.
 */
constexpr uint64_t
deriveRunSeed(uint64_t campaignSeed, uint64_t index)
{
    uint64_t s = campaignSeed ^ (0x9e3779b97f4a7c15ull * (index + 1));
    return splitmix64Next(s);
}

/** xoshiro256** PRNG with SplitMix64 seeding. */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /** Re-initialise the state from a 64-bit seed. */
    void
    reseed(uint64_t seed)
    {
        // SplitMix64 expansion of the seed into four state words.
        uint64_t x = seed;
        for (auto &word : state_)
            word = splitmix64Next(x);
    }

    /** Next raw 64-bit draw. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n); n must be > 0. */
    uint64_t
    below(uint64_t n)
    {
        // Lemire's multiply-shift bounded draw (slightly biased for
        // astronomically large n; fine for simulation use).
        return static_cast<uint64_t>(
            (static_cast<__uint128_t>(next()) * n) >> 64);
    }

    /** Bernoulli trial with probability p. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4] = {};
};

} // namespace vguard

#endif // VGUARD_UTIL_RNG_HPP
