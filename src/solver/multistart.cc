#include "solver/multistart.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "solver/pattern_search.hh"
#include "solver/qp.hh"
#include "solver/strategy.hh"

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

/** Outcome of one restart's pipeline. */
struct StartResult
{
    Vec x;
    double value = std::numeric_limits<double>::infinity();
    bool feasible = false;
};

/**
 * Run the strategy pipeline from one point. Every stage receives the
 * previous stage's result (strategies guarantee "no worse than the
 * start", so chaining is monotone) and the start's shared evaluation
 * budget.
 */
StartResult
searchFromStart(const ScalarObjective& f, const ConstraintSet& constraints,
                const std::vector<const SearchStrategy*>& pipeline,
                const Vec& x0, const MultistartOptions& options)
{
    EvalBudget budget(options.maxEvalsPerStart);
    Vec x = x0;
    double value = std::numeric_limits<double>::infinity();
    for (const SearchStrategy* stage : pipeline) {
        SearchResult r = stage->search(f, constraints, x, budget);
        x = std::move(r.x);
        value = r.value;
    }
    StartResult r;
    r.x = std::move(x);
    // Strategies return a value consistent with their point (f is
    // pure), so the last stage's value is exactly f(r.x) — no
    // re-evaluation needed.
    r.value = value;
    r.feasible = constraints.feasible(r.x, 1e-5);
    return r;
}

} // namespace

std::vector<std::string>
multistartPipelineNames(const MultistartOptions& options)
{
    if (!options.pipeline.empty())
        return options.pipeline;
    return {"subgradient", "pattern-search", "nelder-mead"};
}

MultistartOptions
screeningOptions(MultistartOptions full, int starts, long long max_evals)
{
    full.starts = starts;
    full.maxEvalsPerStart = max_evals;
    return full;
}

SearchResult
multistartMinimize(const ScalarObjective& f,
                   const ConstraintSet& constraints, const Vec& hint,
                   MultistartOptions options)
{
    const std::size_t n = constraints.numVars();
    const std::vector<const SearchStrategy*> pipeline =
        resolveStrategyPipeline(multistartPipelineNames(options));

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
        results[i] =
            searchFromStart(f, constraints, pipeline, starts[i], options);
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
    // default polls, dwarfing tightly budgeted pipelines.
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
