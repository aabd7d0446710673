/**
 * @file
 * Pluggable search-strategy layer for the bandwidth optimizer.
 *
 * Every iterative search LIBRA knows — the subgradient /
 * pattern-search / Nelder-Mead chain — implements one interface:
 *
 *     search(objective, constraints, start, budget) -> SearchResult
 *
 * and registers itself in the process-wide StrategyRegistry under a
 * stable name ("subgradient", "pattern-search", "nelder-mead"). The
 * multistart driver is generic over an ordered pipeline of registered
 * strategies, so adding a solver never touches the driver: study
 * files select pipelines with `SOLVER <name>[,<name>...]` and the CLI
 * with `--solver`.
 *
 * Determinism contract (see docs/SOLVERS.md): a strategy must be
 * a pure function of (objective, constraints, start) and must be
 * bit-identical at any thread count. Strategies are shared across
 * concurrently running starts, so search() must be const and carry no
 * mutable state; batched evaluations write into per-candidate slots
 * and reduce in index order.
 */

#ifndef LIBRA_SOLVER_STRATEGY_HH
#define LIBRA_SOLVER_STRATEGY_HH

#include <string>
#include <vector>

#include "common/registry.hh"
#include "solver/constraint_set.hh"
#include "solver/subgradient.hh"

namespace libra {

/**
 * Objective-evaluation budget shared by the stages of one start's
 * pipeline. A strategy caps its own iteration count by remaining()
 * before running and charges what it actually spent afterwards, so a
 * later stage sees what an earlier one used. The budget is per start
 * (never shared across threads), which keeps results independent of
 * scheduling. A zero limit means unlimited — the strategies' own
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

/** One registered search algorithm; see the file comment's contract. */
class SearchStrategy
{
  public:
    static constexpr const char* kRegistryKind = "search strategy";

    virtual ~SearchStrategy() = default;

    /** Registry key, e.g. "pattern-search". */
    virtual std::string name() const = 0;

    /** One-line description for `libra_cli list-solvers`. */
    virtual std::string description() const = 0;

    /**
     * Minimize @p f over @p constraints from the feasible point
     * @p start within @p budget. Must return a feasible point no
     * worse than the start (strategies that can wander, like
     * Nelder-Mead, compare against f(start) internally and fall back
     * to the start).
     */
    virtual SearchResult search(const ScalarObjective& f,
                                const ConstraintSet& constraints,
                                const Vec& start,
                                EvalBudget& budget) const = 0;
};

/** The SOLVER layer's registry; its built-ins are listed above. */
using StrategyRegistry = Registry<SearchStrategy>;
template <>
void StrategyRegistry::registerBuiltins(StrategyRegistry& registry);

/**
 * Resolve an ordered pipeline spec against the global registry.
 * @throws FatalError naming the unknown strategy and the known ones.
 */
std::vector<const SearchStrategy*>
resolveStrategyPipeline(const std::vector<std::string>& names);

/**
 * Parse a comma-separated solver spec ("pattern-search,nelder-mead")
 * into pipeline names. Validates every name against the global
 * registry.
 * @throws FatalError on an empty spec or an unknown name.
 */
std::vector<std::string> parseSolverSpec(const std::string& spec);

/** Join pipeline names back into the comma-separated spec form. */
std::string solverSpecToString(const std::vector<std::string>& names);

} // namespace libra

#endif // LIBRA_SOLVER_STRATEGY_HH
