/**
 * @file
 * Tests for the closed-form proportional allocation, and a check of the
 * iterative optimizer against the square-root water-filling optimum.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/logging.hh"
#include "solver/multistart.hh"
#include "solver/water_fill.hh"

namespace libra {
namespace {

/**
 * Square-root water filling, the closed-form minimizer of
 * sum_i a_i / B_i under sum B = total: B_i = total * sqrt(a_i) /
 * sum(sqrt(a)). The oracle the iterative solver is checked against.
 */
Vec
waterFillAllocation(const Vec& a, double total)
{
    Vec roots(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        roots[i] = std::sqrt(a[i]);
    return proportionalAllocation(roots, total);
}

TEST(Proportional, EqualizesRatios)
{
    Vec a{6.0, 3.0, 1.0};
    Vec b = proportionalAllocation(a, 100.0);
    EXPECT_NEAR(b[0], 60.0, 1e-12);
    EXPECT_NEAR(b[1], 30.0, 1e-12);
    EXPECT_NEAR(b[2], 10.0, 1e-12);
    // Ratios a_i / B_i all equal.
    EXPECT_NEAR(a[0] / b[0], a[2] / b[2], 1e-12);
}

TEST(Proportional, ZeroWeightGetsFloor)
{
    Vec a{1.0, 0.0};
    Vec b = proportionalAllocation(a, 10.0, 0.5);
    EXPECT_NEAR(b[1], 0.5, 1e-12);
    EXPECT_NEAR(b[0], 9.5, 1e-12);
}

TEST(Proportional, Validation)
{
    EXPECT_THROW(proportionalAllocation({1.0}, -5.0), FatalError);
    EXPECT_THROW(proportionalAllocation({0.0, 0.0}, 10.0), FatalError);
    EXPECT_THROW(proportionalAllocation({-1.0, 2.0}, 10.0), FatalError);
    EXPECT_THROW(proportionalAllocation({1.0, 0.0}, 1.0, 2.0),
                 FatalError);
}

TEST(WaterFill, SquareRootSplit)
{
    // min 16/x + 4/y + 1/z, sum = 70 -> (40, 20, 10).
    Vec b = waterFillAllocation({16.0, 4.0, 1.0}, 70.0);
    EXPECT_NEAR(b[0], 40.0, 1e-12);
    EXPECT_NEAR(b[1], 20.0, 1e-12);
    EXPECT_NEAR(b[2], 10.0, 1e-12);
}

TEST(WaterFill, MatchesIterativeSolver)
{
    Vec a{25.0, 9.0, 4.0, 1.0};
    double total = 120.0;
    Vec analytic = waterFillAllocation(a, total);

    auto f = [&a](const Vec& x) {
        double s = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i)
            s += a[i] / std::max(x[i], 1e-12);
        return s;
    };
    ConstraintSet cs(4);
    cs.addTotalBw(total);
    cs.addLowerBounds(0.1);
    SearchResult r = multistartMinimize(f, cs, Vec(4, total / 4.0));
    EXPECT_NEAR(r.value, f(analytic), f(analytic) * 0.01);
}

/** Property: both closed forms conserve the budget exactly. */
class AllocationBudget : public ::testing::TestWithParam<double>
{};

TEST_P(AllocationBudget, SumsToTotal)
{
    double total = GetParam();
    Vec a{7.0, 5.0, 3.0, 2.0, 1.0};
    for (const Vec& b : {proportionalAllocation(a, total),
                         waterFillAllocation(a, total)}) {
        double sum = 0.0;
        for (double x : b) {
            EXPECT_GT(x, 0.0);
            sum += x;
        }
        EXPECT_NEAR(sum, total, total * 1e-12);
    }
}

INSTANTIATE_TEST_SUITE_P(Budgets, AllocationBudget,
                         ::testing::Values(10.0, 100.0, 1000.0));

} // namespace
} // namespace libra
