#include "solver/subgradient.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "solver/batch_eval.hh"
#include "solver/qp.hh"

namespace libra {

Vec
numericGradient(const ScalarObjective& f, const Vec& x, double rel_step)
{
    // All 2n probe points first, (x + h e_i, x - h e_i) per dimension,
    // then one evaluation pass: the compiled objective scores them in
    // a single SIMD batch, plain objectives call f in the same
    // per-dimension order. Batched values are bit-identical to f, so
    // the gradient does not depend on the route.
    const std::size_t n = x.size();
    std::vector<Vec> probes(2 * n, x);
    for (std::size_t i = 0; i < n; ++i) {
        double h = rel_step * std::max(std::abs(x[i]), 1e-3);
        probes[2 * i][i] += h;
        probes[2 * i + 1][i] = std::max(x[i] - h, 1e-12);
    }
    Vec values(2 * n, 0.0);
    if (const BatchEvaluable* batch = batchFacet(f)) {
        batch->evaluateBatch(probes.data(), probes.size(), values.data());
    } else {
        for (std::size_t k = 0; k < probes.size(); ++k)
            values[k] = f(probes[k]);
    }
    Vec g(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        g[i] = (values[2 * i] - values[2 * i + 1]) /
               (probes[2 * i][i] - probes[2 * i + 1][i]);
    }
    return g;
}

SearchResult
projectedSubgradient(const ScalarObjective& f,
                     const ConstraintSet& constraints, const Vec& x0,
                     SubgradientOptions options)
{
    Vec x = x0;
    SearchResult best{x, f(x), 0};
    double scaleBase = std::max(norm(x0), 1.0) * options.initialStep;
    int sinceImprove = 0;

    for (int k = 1; k <= options.maxIterations; ++k) {
        best.iterations = k;
        Vec g = numericGradient(f, x);
        double gn = norm(g);
        if (gn <= 0.0)
            break;
        double step = scaleBase / (std::sqrt(static_cast<double>(k)) * gn);
        Vec candidate = axpy(x, -step, g);
        x = projectOntoConstraints(constraints, candidate);
        double fx = f(x);
        if (fx < best.value - options.tol * std::abs(best.value)) {
            best.value = fx;
            best.x = x;
            sinceImprove = 0;
        } else {
            if (++sinceImprove >= options.patience)
                break;
        }
    }
    return best;
}

} // namespace libra
