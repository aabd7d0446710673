/**
 * @file
 * Tests for the iterative searches: subgradient, pattern search,
 * Nelder-Mead, and the multistart driver.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/estimator.hh"
#include "core/objective.hh"
#include "cost/cost_model.hh"
#include "solver/batch_eval.hh"
#include "solver/multistart.hh"
#include "solver/nelder_mead.hh"
#include "solver/pattern_search.hh"
#include "solver/qp.hh"
#include "solver/subgradient.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

/** The multistart chain's stages, in chain order. */
using ChainStage = SearchResult (*)(const ScalarObjective&,
                                    const ConstraintSet&, const Vec&,
                                    EvalBudget&);
const std::pair<const char*, ChainStage> kChainStages[] = {
    {"subgradient", subgradientStage},
    {"pattern-search", patternSearchStage},
    {"nelder-mead", nelderMeadStage},
};

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

        // The chain's budgeted stage charges identically on both
        // routes.
        for (long long limit = 1; limit <= caps + 2; ++limit) {
            SCOPED_TRACE(limit);
            EvalBudget budgetA(limit), budgetB(limit);
            const SearchResult a =
                patternSearchStage(batched, cs, x0, budgetA);
            const SearchResult b =
                patternSearchStage(plain, cs, x0, budgetB);
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

    // ...and no stage may charge more than the budget allows —
    // iteration clamping must account for each stage's true
    // per-iteration evaluation cost.
    for (const auto& [name, stage] : kChainStages) {
        SCOPED_TRACE(name);
        EvalBudget budget(40);
        SearchResult capped = stage(f, cs, {20.0, 20.0, 20.0}, budget);
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
    cs.add({1.0, 0.0, 0.0}, Relation::Le, cap, "ub-B1");
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

// --- Pinned corpus ---------------------------------------------------------

/** Expected result of one (constraint case, objective, stage) cell. */
struct SolverCorpusExpected
{
    const char* name;
    std::vector<double> x;
    double value;
    int iterations;
};

std::string
hex(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/** One constraint case: a network plus the optimizer's constraint set. */
struct SolverCorpusCase
{
    const char* name;
    const char* network;
    const char* constraint; ///< Extra CONSTRAINT text, or null.
    double dollarCapShare;  ///< DOLLAR_CAP as a share of EqualBW's cost.
};

/**
 * Every solver stage's result bits over the compiled PerfOpt and
 * PerfPerCost objectives: the point as hexfloats, its value and the
 * iteration count. Each stage starts from the same seeded projected
 * point. The cases cover a 3D and a 4D network, one extra CONSTRAINT
 * row and one DOLLAR_CAP row, whose large coefficients make the
 * projection's LU pivot. A change to the solvers' arithmetic — the
 * projection, the probes, the polls, the simplex moves or the cost
 * factor — moves these bits; the other solver tests compare routes
 * and could not see a change that moves both alike. A failure prints
 * the actual row.
 */
TEST(SolverCorpus, StagesAreBitExact)
{
    const std::vector<SolverCorpusExpected> expected{
        {"SW(16)_SW(8)_SW(4)/PerfOptBW/subgradient",
         {0x1.24e3f23084caep+9, 0x1.9ca183c91eeddp+6, 0x1.61f75595d5d98p+3},
         0x1.49f738303157p+2, 401},
        {"SW(16)_SW(8)_SW(4)/PerfOptBW/pattern-search",
         {0x1.2faada08809c7p+9, 0x1.4eca5a92ef58cp+6, 0x1.1ef6a9485e1e9p+3},
         0x1.4a36a832b1d9ep+2, 216},
        {"SW(16)_SW(8)_SW(4)/PerfOptBW/polish",
         {0x1.152e75ffa93ccp+9, 0x1.07161362c8eb8p+7, 0x1.c30149e92219p+3},
         0x1.4a7cdbd650336p+2, 288},
        {"SW(16)_SW(8)_SW(4)/PerfOptBW/nelder-mead",
         {0x1.25f9cd79b759fp+9, 0x1.94d1f135c89c1p+6, 0x1.5afd17e3e4a1dp+3},
         0x1.49f66cf3fe163p+2, 314},
        {"SW(16)_SW(8)_SW(4)/PerfOptBW/multistart",
         {0x1.25f9b36e4d697p+9, 0x1.94d2ad67214bfp+6, 0x1.5afdb9339b43fp+3},
         0x1.49f66cf3f95ecp+2, 0},
        {"SW(16)_SW(8)_SW(4)/PerfPerCostOptBW/subgradient",
         {0x1.3813459e2a7bbp+9, 0x1.13814b7f1d4a1p+6, 0x1.be4878f8ed862p+2},
         0x1.ece7cd02f2f4dp+24, 600},
        {"SW(16)_SW(8)_SW(4)/PerfPerCostOptBW/pattern-search",
         {0x1.37c5a45890fc4p+9, 0x1.143a57ac8dbfdp+6, 0x1.d98858eea5e1dp+2},
         0x1.ecd7cbb657652p+24, 876},
        {"SW(16)_SW(8)_SW(4)/PerfPerCostOptBW/polish",
         {0x1.37c5a1554c24cp+9, 0x1.143a6e862d7c4p+6, 0x1.d9886cf715e3bp+2},
         0x1.ecd7cc1897fd8p+24, 1032},
        {"SW(16)_SW(8)_SW(4)/PerfPerCostOptBW/nelder-mead",
         {0x1.3ccc56a3b2c82p+9, 0x1.dfc6a30e0217ap+5, 0x1.9b9f95b68b36dp+2},
         0x1.ec8ba75c27ff1p+24, 213},
        {"SW(16)_SW(8)_SW(4)/PerfPerCostOptBW/multistart",
         {0x1.3ccded2f487e6p+9, 0x1.dfbadf2660efap+5, 0x1.9b326f28b94d1p+2},
         0x1.ec8903f3a78b1p+24, 0},
        {"RI(4)_FC(8)_RI(4)_SW(32)/PerfOptBW/subgradient",
         {0x1.a448d9f641f7cp+8, 0x1.e90eb1fdafffbp+7, 0x1.aa6d1440b8724p+4,
          0x1.111f78db5029cp+3},
         0x1.51c24a625c94ep+2, 559},
        {"RI(4)_FC(8)_RI(4)_SW(32)/PerfOptBW/pattern-search",
         {0x1.a42a040469068p+8, 0x1.ea3102bb16943p+7, 0x1.a42a12826c112p+4,
          0x1.0f5b2ebc9dc69p+3},
         0x1.51a76bf85d452p+2, 384},
        {"RI(4)_FC(8)_RI(4)_SW(32)/PerfOptBW/polish",
         {0x1.a429c4e024549p+8, 0x1.ea317135f5dfbp+7, 0x1.a42a666938f16p+4,
          0x1.0f5b83c9a5924p+3},
         0x1.51a76ee67190bp+2, 568},
        {"RI(4)_FC(8)_RI(4)_SW(32)/PerfOptBW/nelder-mead",
         {0x1.2df1ab0ad6604p+6, 0x1.61ad5f0b4c2d4p+8, 0x1.0299a455eddfep+8,
          0x1.87923b820b595p+3},
         0x1.eff431da5dfe1p+2, 208},
        {"RI(4)_FC(8)_RI(4)_SW(32)/PerfOptBW/multistart",
         {0x1.a42a02cebdc4ep+8, 0x1.ea3104283db24p+7, 0x1.a42a1291f5548p+4,
          0x1.0f5b3e8081998p+3},
         0x1.51a76be6eb792p+2, 0},
        {"RI(4)_FC(8)_RI(4)_SW(32)/PerfPerCostOptBW/subgradient",
         {0x1.ad53a4e00141ep+8, 0x1.f32ca1b1ebb34p+7, 0x1.2331b77779db3p+4,
          0x1.717767c8a367ep+1},
         0x1.6c89612dc70e9p+25, 600},
        {"RI(4)_FC(8)_RI(4)_SW(32)/PerfPerCostOptBW/pattern-search",
         {0x1.bdbaa47c2ae48p+8, 0x1.e514cdf4bfca5p+7, 0x1.1bbdf1212caap+3,
          0x1.6e828035e884p+1},
         0x1.67de21284befep+25, 4000},
        {"RI(4)_FC(8)_RI(4)_SW(32)/PerfPerCostOptBW/polish",
         {0x1.0e068085487ffp+9, 0x1.29d6fb8436493p+7, 0x1.0b133239bd47ap+3,
          0x1.5773d0c2f8a9p+1},
         0x1.5b78d4a9c57eap+25, 4000},
        {"RI(4)_FC(8)_RI(4)_SW(32)/PerfPerCostOptBW/nelder-mead",
         {0x1.10c25274b634cp+9, 0x1.1ff712dbeb2ffp+7, 0x1.fbbb79549304ep+2,
          0x1.4871e1a5d93bbp+1},
         0x1.5b6781a5b7b06p+25, 468},
        {"RI(4)_FC(8)_RI(4)_SW(32)/PerfPerCostOptBW/multistart",
         {0x1.104420b903d3cp+9, 0x1.211f1b87684c4p+7, 0x1.07d475b759055p+3,
          0x1.54c68e44b5132p+1},
         0x1.5b66e2f297e75p+25, 0},
        {"RI(4)_FC(8)_RI(4)_SW(32)+CONSTRAINT/PerfOptBW/subgradient",
         {0x1.e9ea90d1a3123p+7, 0x1.0eeec1a8f53dep+7, 0x1.d113e570ac222p+3,
          0x1.310ab7972e3f7p+8},
         0x1.764a776761d8dp+2, 172},
        {"RI(4)_FC(8)_RI(4)_SW(32)+CONSTRAINT/PerfOptBW/pattern-search",
         {0x1.d0842076d49b1p+8, 0x1.0ef7bd6d04a6bp+7, 0x1.d084292fb5955p+3,
          0x1.55ef7e24ac543p+6},
         0x1.7645ee2f56512p+2, 488},
        {"RI(4)_FC(8)_RI(4)_SW(32)+CONSTRAINT/PerfOptBW/polish",
         {0x1.d084214383297p+8, 0x1.0ef7bdfe002eap+7, 0x1.d084201ffd161p+3,
          0x1.55ef7af1f1c0ap+6},
         0x1.7645ee0d79cd2p+2, 1048},
        {"RI(4)_FC(8)_RI(4)_SW(32)+CONSTRAINT/PerfOptBW/nelder-mead",
         {0x1.cbe929ffd4c7ap+7, 0x1.0aa68ac7300bbp+7, 0x1.c91d8031ee5adp+3,
          0x1.426f399aee238p+8},
         0x1.779b6391e2bf2p+2, 204},
        {"RI(4)_FC(8)_RI(4)_SW(32)+CONSTRAINT/PerfOptBW/multistart",
         {0x1.d2a470e7e3842p+8, 0x1.0ef7bdef888a6p+7, 0x1.d08421077759ap+3,
          0x1.4d6e3c6070b24p+6},
         0x1.7645ee07ed4f9p+2, 0},
        {"RI(4)_FC(8)_RI(4)_SW(32)+CONSTRAINT/PerfPerCostOptBW/subgradient",
         {0x1.1233b4b8949cep+9, 0x1.0d96500d60a2dp+7, 0x1.bf599905c6cddp+3,
          0x1.6950dffc1f2a2p+1},
         0x1.5ddb2f1dd72b1p+25, 248},
        {"RI(4)_FC(8)_RI(4)_SW(32)+CONSTRAINT/PerfPerCostOptBW/pattern-search",
         {0x1.11aca18418612p+9, 0x1.1b9431f97d032p+7, 0x1.06bce0682fce3p+3,
          0x1.535e7be776e8p+1},
         0x1.5b68f349fe6cp+25, 1144},
        {"RI(4)_FC(8)_RI(4)_SW(32)+CONSTRAINT/PerfPerCostOptBW/polish",
         {0x1.11ad06021ac6ep+9, 0x1.1b98c1090cab2p+7, 0x1.0672bc6953d21p+3,
          0x1.52fec9fcbf156p+1},
         0x1.5b685a502c78fp+25, 1752},
        {"RI(4)_FC(8)_RI(4)_SW(32)+CONSTRAINT/PerfPerCostOptBW/nelder-mead",
         {0x1.12fb2dd39aa4fp+9, 0x1.173e3f3edee31p+7, 0x1.f7b9717523a36p+2,
          0x1.45cf79c35b0b3p+1},
         0x1.5b717ed5672ddp+25, 525},
        {"RI(4)_FC(8)_RI(4)_SW(32)+CONSTRAINT/PerfPerCostOptBW/multistart",
         {0x1.1233b41b85095p+9, 0x1.1c43a3b863986p+7, 0x1.c9d8db73c1cc4p+2,
          0x1.27b13f7a8cfb3p+1},
         0x1.5ba4749096b61p+25, 0},
        {"SW(16)_SW(8)_SW(4)+DOLLAR_CAP/PerfOptBW/subgradient",
         {0x1.252eaf1b848c8p+9, 0x1.9a80e1168f77dp+6, 0x1.604d306a611fap+3},
         0x1.49f6f923f3b6ep+2, 518},
        {"SW(16)_SW(8)_SW(4)+DOLLAR_CAP/PerfOptBW/pattern-search",
         {0x1.0b816c123fcd3p+9, 0x1.2a0b615bc69f7p+7, 0x1.feeee5b3a2bdbp+3},
         0x1.4b27e29f5278fp+2, 336},
        {"SW(16)_SW(8)_SW(4)+DOLLAR_CAP/PerfOptBW/polish",
         {0x1.eb86c01ab54fap+8, 0x1.7898f896a9192p+7, 0x1.42cc399f623d3p+4},
         0x1.4d5f5d7e87f3dp+2, 642},
        {"SW(16)_SW(8)_SW(4)+DOLLAR_CAP/PerfOptBW/nelder-mead",
         {0x1.25f869e45f895p+9, 0x1.94db40b4cc653p+6, 0x1.5b0b81419547cp+3},
         0x1.49f66fb7ef437p+2, 300},
        {"SW(16)_SW(8)_SW(4)+DOLLAR_CAP/PerfOptBW/multistart",
         {0x1.2532a34343b3cp+9, 0x1.9a7111b6182c2p+6, 0x1.5fcea179513a9p+3},
         0x1.49f6c6608fc41p+2, 0},
        {"SW(16)_SW(8)_SW(4)+DOLLAR_CAP/PerfPerCostOptBW/subgradient",
         {0x1.d479c97ce5d82p+3, 0x1.5366716415c13p+1, 0x1p+0},
         0x1.33097abc5a90dp+22, 570},
        {"SW(16)_SW(8)_SW(4)+DOLLAR_CAP/PerfPerCostOptBW/pattern-search",
         {0x1.d4782fd8ce74cp+3, 0x1.5365160315e42p+1, 0x1p+0},
         0x1.33097abc46fb2p+22, 330},
        {"SW(16)_SW(8)_SW(4)+DOLLAR_CAP/PerfPerCostOptBW/polish",
         {0x1.d47838af8ec03p+3, 0x1.53658ce6178cdp+1, 0x1p+0},
         0x1.33097abc44042p+22, 564},
        {"SW(16)_SW(8)_SW(4)+DOLLAR_CAP/PerfPerCostOptBW/nelder-mead",
         {0x1.18e26762c0639p+3, 0x1.96fd39194a246p+0, 0x1p+0},
         0x1.3e426b22fa754p+22, 146},
        {"SW(16)_SW(8)_SW(4)+DOLLAR_CAP/PerfPerCostOptBW/multistart",
         {0x1.d4786a498515cp+3, 0x1.53659c909de86p+1, 0x1p+0},
         0x1.33097abc43816p+22, 0},
    };
    const std::vector<SolverCorpusCase> cases{
        {"SW(16)_SW(8)_SW(4)", "SW(16)_SW(8)_SW(4)", nullptr, 0.0},
        {"RI(4)_FC(8)_RI(4)_SW(32)", "RI(4)_FC(8)_RI(4)_SW(32)", nullptr,
         0.0},
        {"RI(4)_FC(8)_RI(4)_SW(32)+CONSTRAINT", "RI(4)_FC(8)_RI(4)_SW(32)",
         "B2 + B3 <= 150", 0.0},
        {"SW(16)_SW(8)_SW(4)+DOLLAR_CAP", "SW(16)_SW(8)_SW(4)", nullptr,
         0.6},
    };
    const CostModel cost = CostModel::defaultModel();
    std::size_t cell = 0;
    for (const SolverCorpusCase& c : cases) {
        Network net = Network::parse(c.network);
        const std::size_t n = net.numDims();
        // The optimizer's constraint set: budget row, lower bounds,
        // the extra row, then the dollar-cap row (which relaxes the
        // budget to a ceiling).
        ConstraintSet cs(n);
        cs.addTotalBw(700.0, c.dollarCapShare > 0.0 ? Relation::Le
                                                    : Relation::Eq);
        cs.addLowerBounds(1.0);
        if (c.constraint)
            cs.addParsed(c.constraint);
        if (c.dollarCapShare > 0.0) {
            Vec coeffs(n);
            for (std::size_t i = 0; i < n; ++i)
                coeffs[i] = cost.dollarPerGBps(net.dim(i)) *
                            static_cast<double>(net.npus());
            cs.add(coeffs, Relation::Le,
                   c.dollarCapShare *
                       cost.networkCost(net, net.equalBw(700.0)));
        }
        Rng rng(0x5011 + n);
        const Vec x0 =
            projectOntoConstraints(cs, rng.simplexPoint(n, 700.0));

        TrainingEstimator est(net);
        std::vector<TargetWorkload> targets = {
            {wl::resnet50(net.npus()), 0.75},
            {wl::gpt3(net.npus()), 0.25}};
        for (OptimizationObjective objective :
             {OptimizationObjective::PerfOpt,
              OptimizationObjective::PerfPerCostOpt}) {
            const ScalarObjective f =
                makeObjective(objective, est, cost, targets);
            PatternSearchOptions polish;
            polish.initialStep = 0.02;
            MultistartOptions multistart;
            multistart.starts = 2;
            const std::vector<std::pair<const char*, SearchResult>> stages{
                {"subgradient", projectedSubgradient(f, cs, x0)},
                {"pattern-search", patternSearch(f, cs, x0)},
                {"polish", patternSearch(f, cs, x0, polish)},
                {"nelder-mead", nelderMead(f, cs, x0)},
                {"multistart", multistartMinimize(f, cs, x0, multistart)},
            };
            for (const auto& [stage, r] : stages) {
                const std::string label = std::string(c.name) + "/" +
                                          objectiveName(objective) + "/" +
                                          stage;
                SCOPED_TRACE(label);
                std::string actual = "{\"" + label + "\", {";
                for (std::size_t i = 0; i < r.x.size(); ++i)
                    actual += (i ? ", " : "") + hex(r.x[i]);
                actual += "}, " + hex(r.value) + ", " +
                          std::to_string(r.iterations) + "},";
                if (cell == expected.size()) {
                    ADD_FAILURE() << "missing corpus row " << actual;
                    continue;
                }
                const SolverCorpusExpected& e = expected[cell++];
                EXPECT_EQ(label, e.name);
                EXPECT_EQ(bits(r.value), bits(e.value)) << actual;
                EXPECT_EQ(r.iterations, e.iterations) << actual;
                ASSERT_EQ(r.x.size(), e.x.size()) << actual;
                for (std::size_t i = 0; i < r.x.size(); ++i)
                    EXPECT_EQ(bits(r.x[i]), bits(e.x[i]))
                        << "dim " << i << ": " << actual;
            }
        }
    }
    EXPECT_EQ(cell, expected.size());
}

} // namespace
} // namespace libra
