/**
 * @file
 * Deterministic pseudo-random source for the multistart optimizer's
 * random start points. Wraps a fixed-seed Mersenne engine so every run
 * is reproducible.
 */

#ifndef LIBRA_COMMON_RANDOM_HH
#define LIBRA_COMMON_RANDOM_HH

#include <cstdint>
#include <random>
#include <vector>

namespace libra {

/** Seedable RNG drawing random points on the scaled simplex. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x11BAa) : engine_(seed) {}

    /** Point on the positive simplex scaled to sum to @p total. */
    std::vector<double> simplexPoint(std::size_t n, double total);

  private:
    std::mt19937_64 engine_;
};

} // namespace libra

#endif // LIBRA_COMMON_RANDOM_HH
