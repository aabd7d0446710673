#include "solver/nelder_mead.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "solver/qp.hh"

namespace libra {

SearchResult
nelderMead(const ScalarObjective& f, const ConstraintSet& constraints,
           const Vec& x0, NelderMeadOptions options)
{
    const std::size_t n = x0.size();

    // Every loop buffer below is sized once; the iterations reuse them.
    Vec clipped(n);
    auto penalized = [&](const Vec& x) {
        double v = constraints.maxViolation(x);
        // Guard against negative bandwidths reaching the raw objective.
        for (std::size_t i = 0; i < n; ++i)
            clipped[i] = std::max(x[i], 1e-9);
        return f(clipped) + options.penaltyWeight * v * v;
    };
    // out = a + s * (b - c), element by element.
    auto combine = [n](Vec& out, const Vec& a, double s, const Vec& b,
                       const Vec& c) {
        for (std::size_t i = 0; i < n; ++i)
            out[i] = a[i] + s * (b[i] - c[i]);
    };

    double base = 1.0;
    for (double v : x0)
        base = std::max(base, std::abs(v));
    double edge = options.initialScale * base;

    // Initial simplex: x0 plus one offset vertex per coordinate.
    std::vector<Vec> simplex;
    simplex.push_back(x0);
    for (std::size_t i = 0; i < n; ++i) {
        Vec v = x0;
        v[i] += edge;
        simplex.push_back(v);
    }
    std::vector<double> values;
    values.reserve(simplex.size());
    for (const auto& v : simplex)
        values.push_back(penalized(v));

    // Sort by value, permuting the vertices by swaps (no copies).
    std::vector<std::size_t> idx(simplex.size());
    std::vector<Vec> sorted(simplex.size());
    std::vector<double> sortedValues(simplex.size());
    auto order = [&]() {
        std::iota(idx.begin(), idx.end(), 0);
        std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
            return values[a] < values[b];
        });
        for (std::size_t k = 0; k < idx.size(); ++k) {
            sorted[k].swap(simplex[idx[k]]);
            sortedValues[k] = values[idx[k]];
        }
        simplex.swap(sorted);
        values.swap(sortedValues);
    };

    Vec centroid(n);
    Vec reflected(n);
    Vec expanded(n);
    Vec contracted(n);
    int iter = 0;
    for (; iter < options.maxIterations; ++iter) {
        order();
        if (values.back() - values.front() <=
            options.tol * (std::abs(values.front()) + 1e-30))
            break;

        // Centroid of all but the worst vertex.
        std::fill(centroid.begin(), centroid.end(), 0.0);
        for (std::size_t v = 0; v + 1 < simplex.size(); ++v)
            for (std::size_t i = 0; i < n; ++i)
                centroid[i] += simplex[v][i];
        for (auto& c : centroid)
            c /= static_cast<double>(simplex.size() - 1);

        Vec& worst = simplex.back();
        combine(reflected, centroid, 1.0, centroid, worst);
        double fr = penalized(reflected);

        if (fr < values.front()) {
            combine(expanded, centroid, 2.0, centroid, worst);
            double fe = penalized(expanded);
            if (fe < fr) {
                worst.swap(expanded);
                values.back() = fe;
            } else {
                worst.swap(reflected);
                values.back() = fr;
            }
        } else if (fr < values[values.size() - 2]) {
            worst.swap(reflected);
            values.back() = fr;
        } else {
            combine(contracted, centroid, 0.5, worst, centroid);
            double fc = penalized(contracted);
            if (fc < values.back()) {
                worst.swap(contracted);
                values.back() = fc;
            } else {
                // Shrink towards the best vertex.
                for (std::size_t v = 1; v < simplex.size(); ++v) {
                    combine(simplex[v], simplex.front(), 0.5, simplex[v],
                            simplex.front());
                    values[v] = penalized(simplex[v]);
                }
            }
        }
    }
    order();

    Vec projected = projectOntoConstraints(constraints, simplex.front());
    return SearchResult{projected, f(projected), iter};
}

} // namespace libra
