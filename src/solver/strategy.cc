#include "solver/strategy.hh"

#include <algorithm>

#include "common/logging.hh"
#include "solver/nelder_mead.hh"
#include "solver/pattern_search.hh"

namespace libra {

namespace {

/** Projected subgradient descent; its result tracks the best feasible
 *  iterate including the start, so it is never worse than the start. */
class SubgradientStrategy final : public SearchStrategy
{
  public:
    std::string name() const override { return "subgradient"; }

    std::string
    description() const override
    {
        return "projected subgradient descent (global optimum on the "
               "convex PerfOpt objective)";
    }

    SearchResult
    search(const ScalarObjective& f, const ConstraintSet& constraints,
           const Vec& start, EvalBudget& budget) const override
    {
        // Each iteration costs a central-difference gradient (2n
        // evals) plus the step evaluation, after one initial f(x0)
        // score; clamp the iteration count so the worst case fits the
        // remaining budget exactly.
        const long long perIter =
            2 * static_cast<long long>(start.size()) + 1;
        SubgradientOptions opt;
        opt.maxIterations = static_cast<int>(std::clamp<long long>(
            (budget.remaining() - 1) / perIter, 0,
            opt.maxIterations));
        if (opt.maxIterations == 0)
            return SearchResult{start, f(start), 0};
        SearchResult r =
            projectedSubgradient(f, constraints, start, opt);
        budget.charge(static_cast<long long>(r.iterations) * perIter +
                      1);
        return r;
    }
};

/** Projected compass search; never worse than its start by design. */
class PatternSearchStrategy final : public SearchStrategy
{
  public:
    std::string name() const override { return "pattern-search"; }

    std::string
    description() const override
    {
        return "projected compass search (derivative-free local "
               "polish, monotone improvement)";
    }

    SearchResult
    search(const ScalarObjective& f, const ConstraintSet& constraints,
           const Vec& start, EvalBudget& budget) const override
    {
        // One initial f(x0) score, then iterations == poll evals.
        // patternSearch can overshoot its cap by one poll (the +/-
        // pair only re-checks between coordinates), so reserve two.
        PatternSearchOptions opt;
        opt.maxIterations = static_cast<int>(std::clamp<long long>(
            budget.remaining() - 2, 0, opt.maxIterations));
        if (opt.maxIterations == 0)
            return SearchResult{start, f(start), 0};
        SearchResult r = patternSearch(f, constraints, start, opt);
        budget.charge(r.iterations + 1);
        return r;
    }
};

/**
 * Penalized Nelder-Mead. The simplex can wander, so the wrapper keeps
 * the historical chain semantics: accept the simplex result only when
 * it beats the start's objective value, otherwise return the start.
 */
class NelderMeadStrategy final : public SearchStrategy
{
  public:
    std::string name() const override { return "nelder-mead"; }

    std::string
    description() const override
    {
        return "penalized Nelder-Mead simplex (escapes valleys "
               "axis-aligned polling cannot)";
    }

    SearchResult
    search(const ScalarObjective& f, const ConstraintSet& constraints,
           const Vec& start, EvalBudget& budget) const override
    {
        double startValue = f(start);
        // Worst case: the start comparison, n + 1 initial vertices,
        // up to 2 + n penalized evaluations per iteration (a shrink
        // re-scores every vertex), and the final projection's score.
        const long long n = static_cast<long long>(start.size());
        const long long fixed = n + 3;
        const long long perIter = n + 2;
        NelderMeadOptions opt;
        opt.maxIterations = static_cast<int>(std::clamp<long long>(
            (budget.remaining() - fixed) / perIter, 0,
            opt.maxIterations));
        if (opt.maxIterations == 0)
            return SearchResult{start, startValue, 0};
        SearchResult r = nelderMead(f, constraints, start, opt);
        budget.charge(static_cast<long long>(r.iterations) * perIter +
                      fixed);
        if (r.value < startValue)
            return r;
        return SearchResult{start, startValue, r.iterations};
    }
};

} // namespace

template <>
void
StrategyRegistry::registerBuiltins(StrategyRegistry& registry)
{
    registry.add(std::make_unique<SubgradientStrategy>());
    registry.add(std::make_unique<PatternSearchStrategy>());
    registry.add(std::make_unique<NelderMeadStrategy>());
}

std::vector<const SearchStrategy*>
resolveStrategyPipeline(const std::vector<std::string>& names)
{
    if (names.empty())
        fatal("solver pipeline is empty");
    std::vector<const SearchStrategy*> pipeline;
    pipeline.reserve(names.size());
    for (const auto& name : names)
        pipeline.push_back(&StrategyRegistry::global().resolve(name));
    return pipeline;
}

std::vector<std::string>
parseSolverSpec(const std::string& spec)
{
    std::vector<std::string> names;
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        std::size_t comma = spec.find(',', begin);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string token = spec.substr(begin, comma - begin);
        auto first = token.find_first_not_of(" \t");
        if (first == std::string::npos)
            fatal("empty strategy name in solver spec '", spec, "'");
        auto last = token.find_last_not_of(" \t");
        names.push_back(token.substr(first, last - first + 1));
        begin = comma + 1;
    }
    resolveStrategyPipeline(names); // Validate every name.
    return names;
}

std::string
solverSpecToString(const std::vector<std::string>& names)
{
    std::string out;
    for (const auto& name : names)
        out += (out.empty() ? "" : ",") + name;
    return out;
}

} // namespace libra
