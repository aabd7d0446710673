#include "solver/multistart.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "solver/nelder_mead.hh"
#include "solver/pattern_search.hh"
#include "solver/qp.hh"

namespace libra {

namespace {

/**
 * splitmix64 finalizer: decorrelates the per-start RNG streams so start
 * s's point depends only on (seed, s), never on how many starts ran
 * before it.
 */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Outcome of one restart's chain. */
struct StartResult
{
    Vec x;
    double value = std::numeric_limits<double>::infinity();
    bool feasible = false;
};

/**
 * Run the chain from one point. Every stage receives the previous
 * stage's result (stages are never worse than their start, so
 * chaining is monotone) and the start's shared evaluation budget.
 */
StartResult
searchFromStart(const ScalarObjective& f, const ConstraintSet& constraints,
                const Vec& x0, const MultistartOptions& options)
{
    EvalBudget budget(options.maxEvalsPerStart);
    SearchResult r = subgradientStage(f, constraints, x0, budget);
    r = patternSearchStage(f, constraints, r.x, budget);
    r = nelderMeadStage(f, constraints, r.x, budget);
    StartResult out;
    out.x = std::move(r.x);
    // Stages return a value consistent with their point (f is pure),
    // so the last stage's value is exactly f(out.x) — no
    // re-evaluation needed.
    out.value = r.value;
    out.feasible = constraints.feasible(out.x, 1e-5);
    return out;
}

} // namespace

SearchResult
subgradientStage(const ScalarObjective& f, const ConstraintSet& constraints,
                 const Vec& start, EvalBudget& budget)
{
    // Each iteration costs a central-difference gradient (2n evals)
    // plus the step evaluation, after one initial f(x0) score; clamp
    // the iteration count so the worst case fits the remaining budget
    // exactly.
    const long long perIter = 2 * static_cast<long long>(start.size()) + 1;
    SubgradientOptions opt;
    opt.maxIterations = static_cast<int>(std::clamp<long long>(
        (budget.remaining() - 1) / perIter, 0, opt.maxIterations));
    if (opt.maxIterations == 0)
        return SearchResult{start, f(start), 0};
    SearchResult r = projectedSubgradient(f, constraints, start, opt);
    budget.charge(static_cast<long long>(r.iterations) * perIter + 1);
    return r;
}

SearchResult
patternSearchStage(const ScalarObjective& f,
                   const ConstraintSet& constraints, const Vec& start,
                   EvalBudget& budget)
{
    // One initial f(x0) score, then iterations == poll evals.
    // patternSearch can overshoot its cap by one poll (the +/- pair
    // only re-checks between coordinates), so reserve two.
    PatternSearchOptions opt;
    opt.maxIterations = static_cast<int>(std::clamp<long long>(
        budget.remaining() - 2, 0, opt.maxIterations));
    if (opt.maxIterations == 0)
        return SearchResult{start, f(start), 0};
    SearchResult r = patternSearch(f, constraints, start, opt);
    budget.charge(r.iterations + 1);
    return r;
}

SearchResult
nelderMeadStage(const ScalarObjective& f, const ConstraintSet& constraints,
                const Vec& start, EvalBudget& budget)
{
    double startValue = f(start);
    // Worst case: the start comparison, n + 1 initial vertices, up to
    // 2 + n penalized evaluations per iteration (a shrink re-scores
    // every vertex), and the final projection's score.
    const long long n = static_cast<long long>(start.size());
    const long long fixed = n + 3;
    const long long perIter = n + 2;
    NelderMeadOptions opt;
    opt.maxIterations = static_cast<int>(std::clamp<long long>(
        (budget.remaining() - fixed) / perIter, 0, opt.maxIterations));
    if (opt.maxIterations == 0)
        return SearchResult{start, startValue, 0};
    SearchResult r = nelderMead(f, constraints, start, opt);
    budget.charge(static_cast<long long>(r.iterations) * perIter + fixed);
    if (r.value < startValue)
        return r;
    return SearchResult{start, startValue, r.iterations};
}

SearchResult
multistartMinimize(const ScalarObjective& f,
                   const ConstraintSet& constraints, const Vec& hint,
                   MultistartOptions options)
{
    const std::size_t n = constraints.numVars();

    double total = 0.0;
    for (double v : hint)
        total += std::abs(v);
    if (total <= 0.0)
        total = 1.0;

    // Start 0 is the caller's hint; start s > 0 draws from its own
    // RNG stream so the point set is independent of evaluation order.
    std::vector<Vec> starts;
    starts.push_back(projectOntoConstraints(constraints, hint));
    for (int s = 0; s < options.starts; ++s) {
        Rng rng(mixSeed(options.seed, static_cast<std::uint64_t>(s)));
        starts.push_back(projectOntoConstraints(
            constraints, rng.simplexPoint(n, total)));
    }

    // Restarts are independent; fan out on the pool. Results land in
    // per-start slots, so the reduction below is order-independent.
    std::vector<StartResult> results(starts.size());
    auto runOne = [&](std::size_t i) {
        results[i] = searchFromStart(f, constraints, starts[i], options);
    };
    ThreadPool::global().parallelFor(starts.size(), runOne);

    // Deterministic winner: best feasible value, ties broken toward
    // the lower start index (strict < scans in index order).
    SearchResult best;
    best.value = std::numeric_limits<double>::infinity();
    for (const auto& r : results) {
        if (r.feasible && r.value < best.value) {
            best.value = r.value;
            best.x = r.x;
        }
    }

    if (best.x.empty())
        fatal("no search start reached a feasible point with a finite "
              "objective");

    // Final polish from the overall winner. The polish is one extra
    // budgeted stage: without the cap it could spend up to its 4000
    // default polls, dwarfing a tightly budgeted chain.
    PatternSearchOptions polish;
    polish.initialStep = 0.02;
    if (options.maxEvalsPerStart > 0) {
        polish.maxIterations = static_cast<int>(std::min<long long>(
            polish.maxIterations, options.maxEvalsPerStart));
    }
    SearchResult final = patternSearch(f, constraints, best.x, polish);
    if (final.value < best.value) {
        best.value = final.value;
        best.x = final.x;
    }
    return best;
}

} // namespace libra
