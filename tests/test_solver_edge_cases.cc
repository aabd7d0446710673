/**
 * @file
 * Degenerate-input coverage for every stage of the search chain and
 * the multistart driver: 1-dimension problems (nothing to trade off),
 * a total budget exactly at the sum of the per-dimension floors (the
 * feasible set is a single point), a budget below the floors (an
 * infeasible polyhedron must produce a clean error, never NaN), and
 * the same cases end-to-end through BwOptimizer on real networks.
 * Every stage must return a feasible projected point or throw
 * FatalError; NaN or negative bandwidth is always a bug.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "core/optimizer.hh"
#include "solver/multistart.hh"
#include "topology/network.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

/** Convex separable model: sum of a_i / x_i, the LIBRA time shape. */
ScalarObjective
inverseSum(Vec weights)
{
    return [weights = std::move(weights)](const Vec& x) {
        double s = 0.0;
        for (std::size_t i = 0; i < x.size(); ++i)
            s += weights[i] / std::max(x[i], 1e-12);
        return s;
    };
}

void
expectCleanPoint(const Vec& x, const ConstraintSet& cs,
                 const std::string& who)
{
    EXPECT_TRUE(cs.feasible(x, 1e-4)) << who;
    for (double v : x) {
        EXPECT_TRUE(std::isfinite(v)) << who;
        EXPECT_GT(v, 0.0) << who;
    }
}

/** The multistart chain's stages, in chain order. */
using ChainStage = SearchResult (*)(const ScalarObjective&,
                                    const ConstraintSet&, const Vec&,
                                    EvalBudget&);
const std::pair<const char*, ChainStage> kChainStages[] = {
    {"subgradient", subgradientStage},
    {"pattern-search", patternSearchStage},
    {"nelder-mead", nelderMeadStage},
};

/** Run one stage from @p x0, validate the result and return it. */
SearchResult
runStage(const char* name, ChainStage stage, const ScalarObjective& f,
         const ConstraintSet& cs, const Vec& x0)
{
    EvalBudget budget;
    SearchResult r = stage(f, cs, x0, budget);
    expectCleanPoint(r.x, cs, name);
    EXPECT_TRUE(std::isfinite(r.value)) << name;
    EXPECT_LE(r.value, f(x0) + 1e-9) << name << " worse than start";
    return r;
}

TEST(SolverEdgeCases, OneDimensionIsAFixedPointForEveryStage)
{
    // With one variable pinned by the budget equality there is nothing
    // to optimize; every stage must hold the point exactly.
    ConstraintSet cs(1);
    cs.addTotalBw(120.0);
    cs.addLowerBounds(0.1);
    auto f = inverseSum({7.0});
    for (const auto& [name, stage] : kChainStages) {
        SearchResult r = runStage(name, stage, f, cs, {120.0});
        EXPECT_NEAR(r.x[0], 120.0, 1e-6) << name;
    }
}

TEST(SolverEdgeCases, BudgetExactlyAtFloorsPinsEveryDimension)
{
    // sum B = 30 with B_i >= 10 has the single feasible point
    // (10, 10, 10); any movement violates a constraint.
    ConstraintSet cs(3);
    cs.addTotalBw(30.0);
    cs.addLowerBounds(10.0);
    auto f = inverseSum({4.0, 2.0, 1.0});
    Vec only{10.0, 10.0, 10.0};
    for (const auto& [name, stage] : kChainStages) {
        SearchResult r = runStage(name, stage, f, cs, only);
        for (std::size_t i = 0; i < 3; ++i)
            EXPECT_NEAR(r.x[i], 10.0, 1e-4) << name << " dim " << i;
    }

    SearchResult driver = multistartMinimize(f, cs, only);
    expectCleanPoint(driver.x, cs, "multistart");
}

TEST(SolverEdgeCases, BudgetBelowFloorsIsACleanErrorForEveryStage)
{
    // sum B = 25 with B_i >= 10 is an empty polyhedron: projection
    // must throw FatalError — never return NaN or negative bandwidth.
    ConstraintSet cs(3);
    cs.addTotalBw(25.0);
    cs.addLowerBounds(10.0);
    auto f = inverseSum({4.0, 2.0, 1.0});
    Vec hint{8.0, 8.0, 9.0};
    for (const auto& [name, stage] : kChainStages) {
        SCOPED_TRACE(name);
        EvalBudget budget;
        EXPECT_THROW(stage(f, cs, hint, budget), FatalError);
    }
    EXPECT_THROW(multistartMinimize(f, cs, hint), FatalError);
}

TEST(SolverEdgeCases, InfeasibleTextConstraintsErrorThroughOptimize)
{
    // Contradictory design constraints through the full optimizer
    // stack.
    Network net = Network::parse("RI(4)_SW(4)");
    BwOptimizer opt(net, CostModel::defaultModel());
    Workload w = wl::resnet50(net.npus());
    OptimizerConfig cfg;
    cfg.totalBw = 200.0;
    cfg.search.starts = 1;
    cfg.constraints = {"B1 >= 150", "B2 >= 150"}; // Sum is 200.
    EXPECT_THROW(opt.optimize({{w, 1.0}}, cfg), FatalError);
}

TEST(SolverEdgeCases, OneDimensionNetworkOptimizesCleanly)
{
    // A single-dimension network end-to-end: the budget equality pins
    // the solution, so the chain must return exactly totalBw.
    Network net = Network::parse("SW(8)");
    BwOptimizer opt(net, CostModel::defaultModel());
    Workload w = wl::resnet50(net.npus());
    OptimizerConfig cfg;
    cfg.totalBw = 150.0;
    cfg.search.starts = 2;
    OptimizationResult r = opt.optimize({{w, 1.0}}, cfg);
    ASSERT_EQ(r.bw.size(), 1u);
    EXPECT_NEAR(r.bw[0], 150.0, 1e-6);
    EXPECT_TRUE(std::isfinite(r.objectiveValue));
    EXPECT_GT(r.weightedTime, 0.0);
}

TEST(SolverEdgeCases, TightFloorsThroughOptimizeStayFeasible)
{
    // minDimBw floors that consume the whole budget leave exactly one
    // feasible point.
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    BwOptimizer opt(net, CostModel::defaultModel());
    Workload w = wl::resnet50(net.npus());
    OptimizerConfig cfg;
    cfg.totalBw = 30.0;
    cfg.minDimBw = 10.0;
    cfg.search.starts = 1;
    OptimizationResult r = opt.optimize({{w, 1.0}}, cfg);
    for (double b : r.bw) {
        EXPECT_TRUE(std::isfinite(b));
        EXPECT_NEAR(b, 10.0, 1e-4);
    }
}

} // namespace
} // namespace libra
