/**
 * @file
 * Deterministic pseudo-random number generation used by workload
 * generators and randomized policies.
 *
 * We use xoshiro256** (public domain, Blackman & Vigna) rather than
 * std::mt19937 because it is faster and its state is four words, and a
 * splitmix64-based stateless hash for procedural content (graph adjacency)
 * where we need random-access randomness without storing a stream.
 */

#ifndef TACSIM_COMMON_RNG_HH
#define TACSIM_COMMON_RNG_HH

#include <cstddef>
#include <cstdint>

namespace tacsim {

/** Stateless 64-bit mixing function (splitmix64 finalizer). */
constexpr std::uint64_t
hashMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Combine two 64-bit values into one hash. */
constexpr std::uint64_t
hashCombine(std::uint64_t a, std::uint64_t b)
{
    return hashMix(a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2)));
}

/**
 * xoshiro256** generator. Seeded deterministically; every workload run
 * with the same seed produces the same address stream.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 1) { reseed(seed); }

    /** Reset the state from a single seed value via splitmix64. */
    void
    reseed(std::uint64_t seed)
    {
        for (auto &w : s_) {
            seed = hashMix(seed);
            w = seed | 1; // never all-zero state
        }
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform value in [0, bound). @p bound must be nonzero. */
    std::uint64_t
    range(std::uint64_t bound)
    {
        // 128-bit multiply avoids modulo bias for our purposes.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return uniform() < p; }

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace tacsim

#endif // TACSIM_COMMON_RNG_HH
