/**
 * @file
 * Deterministic pseudo-random source for the multistart optimizer and
 * randomized property tests. Wraps a fixed-seed Mersenne engine so every
 * run of the benches is reproducible.
 */

#ifndef LIBRA_COMMON_RANDOM_HH
#define LIBRA_COMMON_RANDOM_HH

#include <cstdint>
#include <random>
#include <vector>

namespace libra {

/** Seedable RNG with the handful of draws LIBRA needs. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x11BAa) : engine_(seed) {}

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] inclusive. */
    int uniformInt(int lo, int hi);

    /** Standard normal draw (CMA-ES sampling). */
    double normal();

    /** Point on the positive simplex scaled to sum to @p total. */
    std::vector<double> simplexPoint(std::size_t n, double total);

  private:
    std::mt19937_64 engine_;
};

} // namespace libra

#endif // LIBRA_COMMON_RANDOM_HH
