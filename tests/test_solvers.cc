/**
 * @file
 * Tests for the iterative searches: subgradient, pattern search,
 * Nelder-Mead, and the multistart driver.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.hh"
#include "core/estimator.hh"
#include "core/objective.hh"
#include "cost/cost_model.hh"
#include "solver/batch_eval.hh"
#include "solver/cmaes.hh"
#include "solver/differential_evolution.hh"
#include "solver/multistart.hh"
#include "solver/nelder_mead.hh"
#include "solver/pattern_search.hh"
#include "solver/qp.hh"
#include "solver/strategy.hh"
#include "solver/subgradient.hh"
#include "topology/zoo.hh"
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

/**
 * Analytic optimum of min sum a_i/x_i s.t. sum x_i = T:
 * x_i = T * sqrt(a_i) / sum_j sqrt(a_j).
 */
Vec
inverseSumOptimum(const Vec& a, double total)
{
    double denom = 0.0;
    for (double v : a)
        denom += std::sqrt(v);
    Vec x(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        x[i] = total * std::sqrt(a[i]) / denom;
    return x;
}

TEST(NumericGradient, MatchesAnalytic)
{
    auto f = [](const Vec& x) { return x[0] * x[0] + 3.0 * x[1]; };
    Vec g = numericGradient(f, {2.0, 5.0});
    EXPECT_NEAR(g[0], 4.0, 1e-4);
    EXPECT_NEAR(g[1], 3.0, 1e-4);
}

TEST(Subgradient, SolvesWaterFilling)
{
    Vec a{16.0, 4.0, 1.0};
    ConstraintSet cs(3);
    cs.addTotalBw(70.0);
    cs.addLowerBounds(0.1);

    SearchResult r =
        projectedSubgradient(inverseSum(a), cs, {70.0 / 3, 70.0 / 3,
                                                 70.0 / 3});
    Vec want = inverseSumOptimum(a, 70.0); // (40, 20, 10).
    auto f = inverseSum(a);
    EXPECT_NEAR(r.value, f(want), f(want) * 0.01);
}

TEST(PatternSearch, RefinesToOptimum)
{
    Vec a{9.0, 1.0};
    ConstraintSet cs(2);
    cs.addTotalBw(40.0);
    cs.addLowerBounds(0.1);

    SearchResult r = patternSearch(inverseSum(a), cs, {20.0, 20.0});
    Vec want = inverseSumOptimum(a, 40.0); // (30, 10).
    EXPECT_NEAR(r.x[0], want[0], 0.3);
    EXPECT_NEAR(r.x[1], want[1], 0.3);
}

TEST(PatternSearch, NeverWorseThanStart)
{
    Vec a{5.0, 2.0, 1.0, 7.0};
    ConstraintSet cs(4);
    cs.addTotalBw(100.0);
    cs.addLowerBounds(0.1);
    auto f = inverseSum(a);
    Vec x0{25.0, 25.0, 25.0, 25.0};
    SearchResult r = patternSearch(f, cs, x0);
    EXPECT_LE(r.value, f(x0) + 1e-12);
    EXPECT_TRUE(cs.feasible(r.x, 1e-5));
}

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectSameBits(const SearchResult& a, const SearchResult& b)
{
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(bits(a.value), bits(b.value));
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i)
        EXPECT_EQ(bits(a.x[i]), bits(b.x[i])) << "dim " << i;
}

class PatternSearchRoutes : public ::testing::TestWithParam<const char*>
{};

/**
 * patternSearch scores a sweep's polls speculatively in one batch when
 * the objective carries the batched facet, and one call at a time
 * otherwise. Both routes must return the same bits and the same
 * iteration count at every poll cap, including caps that end a sweep
 * part-way (the one-poll overshoot of the +/- pair), and the plain
 * route must call f exactly once per counted poll.
 */
// GCC 12 falsely flags std::function::target()'s _Any_data as
// maybe-uninitialized when the empty-target branch is fully inlined
// (GCC PR105562); the library code is fine.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
TEST_P(PatternSearchRoutes, BatchedPollsRetraceThePerCallSearch)
{
    Network net = Network::parse(GetParam());
    TrainingEstimator est(net);
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets = {
        {wl::resnet50(net.npus()), 0.75},
        {wl::gpt3(net.npus()), 0.25}};
    const std::size_t n = net.numDims();

    for (OptimizationObjective objective :
         {OptimizationObjective::PerfOpt,
          OptimizationObjective::PerfPerCostOpt}) {
        SCOPED_TRACE(objectiveName(objective));
        ScalarObjective batched =
            makeObjective(objective, est, cost, targets);
        ASSERT_NE(batchFacet(batched), nullptr);
        long long calls = 0;
        ScalarObjective plain = [&batched, &calls](const Vec& x) {
            ++calls;
            return batched(x);
        };
        ASSERT_EQ(batchFacet(plain), nullptr);

        ConstraintSet cs(n);
        cs.addTotalBw(400.0, Relation::Eq);
        cs.addLowerBounds(1.0);
        Vec x0(n, 400.0 / static_cast<double>(n));
        x0[0] += 60.0;
        x0[n - 1] -= 60.0;

        const int caps = 4 * static_cast<int>(n) + 3;
        for (int cap = 1; cap <= caps + 1; ++cap) {
            // The last round runs the default cap to convergence.
            PatternSearchOptions opt;
            if (cap <= caps)
                opt.maxIterations = cap;
            SCOPED_TRACE(opt.maxIterations);
            calls = 0;
            const SearchResult a = patternSearch(batched, cs, x0, opt);
            const SearchResult b = patternSearch(plain, cs, x0, opt);
            expectSameBits(a, b);
            EXPECT_EQ(calls, b.iterations + 1);
        }

        // The strategy wrapper charges identically on both routes.
        const SearchStrategy* strategy =
            StrategyRegistry::global().find("pattern-search");
        ASSERT_NE(strategy, nullptr);
        for (long long limit = 1; limit <= caps + 2; ++limit) {
            SCOPED_TRACE(limit);
            StartPoint start{x0, 0, 400.0};
            EvalBudget budgetA(limit), budgetB(limit);
            const SearchResult a =
                strategy->search(batched, cs, start, budgetA);
            const SearchResult b =
                strategy->search(plain, cs, start, budgetB);
            expectSameBits(a, b);
            EXPECT_EQ(budgetA.used(), budgetB.used());
            EXPECT_LE(budgetA.used(), limit);
        }
    }
}
#pragma GCC diagnostic pop

INSTANTIATE_TEST_SUITE_P(Networks, PatternSearchRoutes,
                         ::testing::Values("RI(4)_FC(4)_SW(4)",
                                           "RI(4)_FC(2)_RI(4)_SW(4)"),
                         [](const ::testing::TestParamInfo<const char*>&
                                info) {
                             return std::to_string(
                                        Network::parse(info.param)
                                            .numDims()) +
                                    "d";
                         });

TEST(NelderMead, FindsConstrainedMinimum)
{
    Vec a{16.0, 1.0};
    ConstraintSet cs(2);
    cs.addTotalBw(50.0);
    cs.addLowerBounds(0.1);
    SearchResult r = nelderMead(inverseSum(a), cs, {25.0, 25.0});
    Vec want = inverseSumOptimum(a, 50.0); // (40, 10).
    auto f = inverseSum(a);
    EXPECT_NEAR(r.value, f(want), f(want) * 0.02);
    EXPECT_TRUE(cs.feasible(r.x, 1e-5));
}

TEST(Multistart, EscapesLocalMinimaOnNonconvex)
{
    // f has a poor local basin near x0=(1,9) and a global one at ~(9,1).
    auto f = [](const Vec& x) {
        auto bump = [](double cx, double cy, double depth, const Vec& p) {
            double dx = p[0] - cx;
            double dy = p[1] - cy;
            return -depth * std::exp(-(dx * dx + dy * dy) / 4.0);
        };
        return 2.0 + bump(1.0, 9.0, 1.0, x) + bump(9.0, 1.0, 2.0, x);
    };
    ConstraintSet cs(2);
    cs.addTotalBw(10.0);
    cs.addLowerBounds(0.0);

    MultistartOptions opt;
    opt.starts = 12;
    opt.pipeline = {"pattern-search", "nelder-mead"};
    SearchResult r = multistartMinimize(f, cs, {1.0, 9.0}, opt);
    EXPECT_NEAR(r.x[0], 9.0, 0.5);
    EXPECT_NEAR(r.x[1], 1.0, 0.5);
}

TEST(Multistart, DeterministicAcrossRuns)
{
    Vec a{4.0, 2.0, 1.0};
    ConstraintSet cs(3);
    cs.addTotalBw(30.0);
    cs.addLowerBounds(0.1);
    auto f = inverseSum(a);
    SearchResult r1 = multistartMinimize(f, cs, {10, 10, 10});
    SearchResult r2 = multistartMinimize(f, cs, {10, 10, 10});
    EXPECT_DOUBLE_EQ(r1.value, r2.value);
    for (int i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(r1.x[static_cast<std::size_t>(i)],
                         r2.x[static_cast<std::size_t>(i)]);
}

TEST(Cmaes, FindsConstrainedMinimum)
{
    Vec a{16.0, 4.0, 1.0};
    ConstraintSet cs(3);
    cs.addTotalBw(70.0);
    cs.addLowerBounds(0.1);
    CmaesOptions opt;
    opt.scale = 70.0;
    SearchResult r =
        cmaesSearch(inverseSum(a), cs, {70.0 / 3, 70.0 / 3, 70.0 / 3},
                    opt);
    Vec want = inverseSumOptimum(a, 70.0); // (40, 20, 10).
    auto f = inverseSum(a);
    EXPECT_NEAR(r.value, f(want), f(want) * 0.01);
    EXPECT_TRUE(cs.feasible(r.x, 1e-5));
}

TEST(Cmaes, IsDeterministicPerSeedAndNeverWorseThanStart)
{
    Vec a{5.0, 1.0};
    ConstraintSet cs(2);
    cs.addTotalBw(40.0);
    cs.addLowerBounds(0.1);
    auto f = inverseSum(a);
    CmaesOptions opt;
    opt.scale = 40.0;
    opt.seed = 77;
    SearchResult r1 = cmaesSearch(f, cs, {20.0, 20.0}, opt);
    SearchResult r2 = cmaesSearch(f, cs, {20.0, 20.0}, opt);
    EXPECT_EQ(r1.value, r2.value);
    EXPECT_EQ(r1.x, r2.x);
    EXPECT_LE(r1.value, f({20.0, 20.0}) + 1e-12);
}

TEST(DifferentialEvolution, FindsConstrainedMinimum)
{
    Vec a{16.0, 4.0, 1.0};
    ConstraintSet cs(3);
    cs.addTotalBw(70.0);
    cs.addLowerBounds(0.1);
    DifferentialEvolutionOptions opt;
    opt.scale = 70.0;
    SearchResult r = differentialEvolutionSearch(
        inverseSum(a), cs, {70.0 / 3, 70.0 / 3, 70.0 / 3}, opt);
    Vec want = inverseSumOptimum(a, 70.0);
    auto f = inverseSum(a);
    EXPECT_NEAR(r.value, f(want), f(want) * 0.01);
    EXPECT_TRUE(cs.feasible(r.x, 1e-5));
}

TEST(DifferentialEvolution, EscapesLocalMinimaOnNonconvex)
{
    // The Multistart bump landscape, solved by one DE run (no
    // restarts): the population must not collapse into the poor
    // basin at (1, 9).
    auto f = [](const Vec& x) {
        auto bump = [](double cx, double cy, double depth, const Vec& p) {
            double dx = p[0] - cx;
            double dy = p[1] - cy;
            return -depth * std::exp(-(dx * dx + dy * dy) / 4.0);
        };
        return 2.0 + bump(1.0, 9.0, 1.0, x) + bump(9.0, 1.0, 2.0, x);
    };
    ConstraintSet cs(2);
    cs.addTotalBw(10.0);
    cs.addLowerBounds(0.0);
    DifferentialEvolutionOptions opt;
    opt.scale = 10.0;
    SearchResult r = differentialEvolutionSearch(f, cs, {1.0, 9.0}, opt);
    EXPECT_NEAR(r.x[0], 9.0, 0.5);
    EXPECT_NEAR(r.x[1], 1.0, 0.5);
}

TEST(StrategyRegistry, BuiltinsAreRegisteredInOrder)
{
    std::vector<std::string> names = StrategyRegistry::global().names();
    std::vector<std::string> want{"subgradient", "pattern-search",
                                  "nelder-mead", "cmaes", "de"};
    EXPECT_EQ(names, want);
    for (const auto& name : names) {
        const SearchStrategy* s = StrategyRegistry::global().find(name);
        ASSERT_NE(s, nullptr);
        EXPECT_EQ(s->name(), name);
        EXPECT_FALSE(s->description().empty());
    }
    EXPECT_EQ(StrategyRegistry::global().find("no-such-strategy"),
              nullptr);
}

TEST(StrategyRegistry, SolverSpecParsesAndRejectsUnknownNames)
{
    std::vector<std::string> spec =
        parseSolverSpec("cmaes, pattern-search");
    EXPECT_EQ(spec,
              (std::vector<std::string>{"cmaes", "pattern-search"}));
    EXPECT_EQ(solverSpecToString(spec), "cmaes,pattern-search");
    EXPECT_THROW(parseSolverSpec(""), FatalError);
    EXPECT_THROW(parseSolverSpec("cmaes,"), FatalError);
    EXPECT_THROW(parseSolverSpec("gradient-descent"), FatalError);
}

TEST(StrategyPipeline, ExplicitDefaultChainMatchesImplicitBitExactly)
{
    // The refactor contract: spelling the default chain out as a
    // pipeline must reproduce the hard-wired behavior bit for bit.
    Vec a{4.0, 2.0, 1.0};
    ConstraintSet cs(3);
    cs.addTotalBw(30.0);
    cs.addLowerBounds(0.1);
    auto f = inverseSum(a);

    MultistartOptions implicit;
    SearchResult r1 = multistartMinimize(f, cs, {10, 10, 10}, implicit);

    MultistartOptions explicitChain;
    explicitChain.pipeline = {"subgradient", "pattern-search",
                              "nelder-mead"};
    SearchResult r2 =
        multistartMinimize(f, cs, {10, 10, 10}, explicitChain);
    EXPECT_EQ(r1.value, r2.value);
    EXPECT_EQ(r1.x, r2.x);

    EXPECT_EQ(multistartPipelineNames(implicit),
              explicitChain.pipeline);
}

TEST(StrategyPipeline, UnknownStrategyInDriverIsAFatalError)
{
    Vec a{1.0, 1.0};
    ConstraintSet cs(2);
    cs.addTotalBw(10.0);
    cs.addLowerBounds(0.1);
    MultistartOptions opt;
    opt.pipeline = {"not-a-strategy"};
    EXPECT_THROW(multistartMinimize(inverseSum(a), cs, {5, 5}, opt),
                 FatalError);
}

TEST(StrategyPipeline, EvalBudgetCapsThePipeline)
{
    Vec a{9.0, 3.0, 1.0};
    ConstraintSet cs(3);
    cs.addTotalBw(60.0);
    cs.addLowerBounds(0.1);
    auto f = inverseSum(a);

    // A tiny budget must still produce a clean feasible point...
    MultistartOptions tight;
    tight.maxEvalsPerStart = 50;
    SearchResult r = multistartMinimize(f, cs, {20, 20, 20}, tight);
    EXPECT_TRUE(cs.feasible(r.x, 1e-5));

    // ...and no strategy may charge more than the budget allows —
    // iteration clamping must account for each strategy's true
    // per-iteration evaluation cost.
    for (const auto& name : StrategyRegistry::global().names()) {
        SCOPED_TRACE(name);
        const SearchStrategy* s = StrategyRegistry::global().find(name);
        ASSERT_NE(s, nullptr);
        EvalBudget budget(40);
        StartPoint start{{20.0, 20.0, 20.0}, 0xB06ull, 60.0};
        SearchResult capped = s->search(f, cs, start, budget);
        EXPECT_TRUE(cs.feasible(capped.x, 1e-5));
        EXPECT_LE(budget.used(), 40);
    }
}

/** Property: multistart respects arbitrary extra linear constraints. */
class MultistartConstraints : public ::testing::TestWithParam<double>
{};

TEST_P(MultistartConstraints, RespectsCap)
{
    double cap = GetParam();
    Vec a{16.0, 4.0, 1.0};
    ConstraintSet cs(3);
    cs.addTotalBw(70.0);
    cs.addLowerBounds(0.1);
    cs.addUpperBound(0, cap);
    SearchResult r = multistartMinimize(inverseSum(a), cs, {23, 23, 24});
    EXPECT_TRUE(cs.feasible(r.x, 1e-4));
    EXPECT_LE(r.x[0], cap + 1e-4);
    // With the unconstrained optimum at 40, a tighter cap binds.
    if (cap < 40.0) {
        EXPECT_NEAR(r.x[0], cap, 0.5);
    }
}

INSTANTIATE_TEST_SUITE_P(Caps, MultistartConstraints,
                         ::testing::Values(10.0, 20.0, 30.0, 50.0));

} // namespace
} // namespace libra
