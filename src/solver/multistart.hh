/**
 * @file
 * Deterministic multistart driver over the fixed search chain.
 *
 * PerfPerCostOptBW (time x dollars) is non-convex, so a single descent
 * can land in a local minimum; the driver runs the chain subgradient ->
 * pattern-search -> Nelder-Mead from several deterministic random
 * feasible points (plus the caller's hint) and keeps the best feasible
 * result.
 *
 * Restarts are independent, so they run concurrently on the global
 * thread pool. Each start draws its point from its own seeded RNG
 * stream (derived from `seed` and the start index), every chain stage
 * is a deterministic function of its start point, and the winner is
 * selected in start-index order with ties broken toward the lower
 * index — so the result is bit-identical at any thread count.
 * Requires the objective to be const-callable from multiple threads
 * (true for all built-in objectives).
 */

#ifndef LIBRA_SOLVER_MULTISTART_HH
#define LIBRA_SOLVER_MULTISTART_HH

#include <cstdint>

#include "solver/constraint_set.hh"
#include "solver/subgradient.hh"

namespace libra {

/**
 * Objective-evaluation budget shared by the stages of one start's
 * chain. A stage caps its own iteration count by remaining() before
 * running and charges what it actually spent afterwards, so a later
 * stage sees what an earlier one used. The budget is per start (never
 * shared across threads), which keeps results independent of
 * scheduling. A zero limit means unlimited — the stages' own
 * iteration caps bind first, preserving historical behavior.
 */
class EvalBudget
{
  public:
    explicit EvalBudget(long long limit = 0)
        : limit_(limit > 0 ? limit : kUnlimited)
    {}

    /** Evaluations left before the budget is exhausted. */
    long long
    remaining() const
    {
        return used_ >= limit_ ? 0 : limit_ - used_;
    }

    /** Record @p evals objective evaluations. */
    void charge(long long evals) { used_ += evals; }

    long long used() const { return used_; }

  private:
    static constexpr long long kUnlimited = 1ll << 62;

    long long limit_;
    long long used_ = 0;
};

/*
 * The chain's stages, in order. Each minimizes @p f over
 * @p constraints from the feasible point @p start within @p budget,
 * and returns a feasible point no worse than the start together with
 * its objective value. Stages are pure functions of their inputs, so
 * concurrent starts may run them side by side.
 */

/** Projected subgradient descent (global optimum on convex PerfOpt). */
SearchResult subgradientStage(const ScalarObjective& f,
                              const ConstraintSet& constraints,
                              const Vec& start, EvalBudget& budget);

/** Projected compass search (derivative-free local polish). */
SearchResult patternSearchStage(const ScalarObjective& f,
                                const ConstraintSet& constraints,
                                const Vec& start, EvalBudget& budget);

/**
 * Penalized Nelder-Mead (escapes valleys axis-aligned polling cannot).
 * The simplex can wander, so its result is kept only when it beats
 * the start's objective value; otherwise the start comes back.
 */
SearchResult nelderMeadStage(const ScalarObjective& f,
                             const ConstraintSet& constraints,
                             const Vec& start, EvalBudget& budget);

/** Options for the multistart driver. */
struct MultistartOptions
{
    int starts = 8;              ///< Random starts besides the hint.
    std::uint64_t seed = 0x11BAa;

    /**
     * Objective-evaluation budget per start, shared by that start's
     * chain stages (see EvalBudget). It also caps the polls of the
     * driver's final polish at N, but that polish scores its start
     * point too and may finish the coordinate pair it began, so it
     * can spend N + 2 evaluations. 0 = unlimited: the stages' own
     * iteration caps bind first.
     */
    long long maxEvalsPerStart = 0;
};

/**
 * Minimize @p f over @p constraints. @p hint provides both the first
 * start and the magnitude scale for random starts. Throws FatalError
 * when no start ends feasible with a finite objective value.
 */
SearchResult multistartMinimize(const ScalarObjective& f,
                                const ConstraintSet& constraints,
                                const Vec& hint,
                                MultistartOptions options = {});

} // namespace libra

#endif // LIBRA_SOLVER_MULTISTART_HH
