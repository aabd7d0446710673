#include "solver/pattern_search.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "solver/batch_eval.hh"
#include "solver/qp.hh"

namespace libra {

SearchResult
patternSearch(const ScalarObjective& f, const ConstraintSet& constraints,
              const Vec& x0, PatternSearchOptions options)
{
    const std::size_t n = x0.size();
    double base = 1.0;
    for (double v : x0)
        base = std::max(base, std::abs(v));
    double step = options.initialStep * base;
    const double minStep = options.minStep * base;

    // Polls run in (coordinate, +/-) order, each from the incumbent the
    // previous poll left. With the batched facet the rest of a sweep is
    // speculated from the current incumbent — built, projected and
    // scored in one batch — then consumed in order; the first
    // improvement is accepted and the polls after it are re-speculated
    // from the new incumbent. Batched values are bit-identical to f, so
    // the route changes no result. Plain objectives speculate one poll
    // at a time, which is a per-call search.
    const BatchEvaluable* batch = batchFacet(f);
    SearchResult best{x0, f(x0), 0};
    int evals = 0;
    std::vector<Vec> polls(2 * n);
    std::vector<double> values(2 * n);

    while (step > minStep && evals < options.maxIterations) {
        // Every coordinate that starts below the cap polls both signs,
        // so the sweep's poll count is fixed before any poll runs.
        const std::size_t coords = std::min<std::size_t>(
            n, static_cast<std::size_t>(options.maxIterations - evals + 1) /
                   2);
        const std::size_t sweep = 2 * coords;
        bool improved = false;
        std::size_t next = 0;
        while (next < sweep) {
            const std::size_t end = batch ? sweep : next + 1;
            for (std::size_t k = next; k < end; ++k) {
                Vec& cand = polls[k];
                cand = best.x;
                cand[k / 2] += (k % 2 ? -1.0 : +1.0) * step;
                projectOntoConstraints(constraints, cand, &cand);
            }
            if (batch)
                batch->evaluateBatch(polls.data() + next, end - next,
                                     values.data() + next);
            else
                values[next] = f(polls[next]);

            std::size_t k = next;
            next = end;
            for (; k < end; ++k) {
                ++evals;
                if (values[k] < best.value) {
                    best.value = values[k];
                    best.x = polls[k];
                    improved = true;
                    next = k + 1;
                    break;
                }
            }
        }
        if (!improved)
            step *= 0.5;
    }
    best.iterations = evals;
    return best;
}

} // namespace libra
