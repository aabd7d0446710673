/**
 * @file
 * Tests for the LIBRA bandwidth optimizer.
 */

#include <gtest/gtest.h>

#include <limits>

#include "common/logging.hh"
#include "core/optimizer.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

/** A workload that is a single All-Reduce over the whole network. */
Workload
singleCollective(const Network& net, Bytes size)
{
    Workload w;
    w.name = "single-ar";
    w.strategy = {1, net.npus()};
    Layer l;
    l.wgComm.push_back({CollectiveType::AllReduce, CommScope::Dp, size});
    w.layers.push_back(l);
    return w;
}

OptimizerConfig
fastConfig(OptimizationObjective obj, double totalBw)
{
    OptimizerConfig cfg;
    cfg.objective = obj;
    cfg.totalBw = totalBw;
    cfg.search.starts = 4;
    return cfg;
}

TEST(Optimizer, PerfOptMatchesAnalyticOptimum)
{
    // For a single collective, time = max_i a_i/B_i with sum B = T.
    // The optimum equalizes all terms: B_i proportional to a_i.
    Network net = Network::parse("RI(4)_RI(4)_RI(4)");
    BwOptimizer opt(net, CostModel::defaultModel());
    std::vector<TargetWorkload> targets{
        {singleCollective(net, 1e9), 1.0}};
    auto cfg = fastConfig(OptimizationObjective::PerfOpt, 100.0);
    OptimizationResult r = opt.optimize(targets, cfg);

    auto spans = mapGroupToDims(net, 1, net.npus());
    auto traffic =
        multiRailTraffic(CollectiveType::AllReduce, 1e9, spans);
    double sum = traffic[0] + traffic[1] + traffic[2];
    for (int i = 0; i < 3; ++i) {
        double want =
            100.0 * traffic[static_cast<std::size_t>(i)] / sum;
        EXPECT_NEAR(r.bw[static_cast<std::size_t>(i)], want,
                    0.05 * 100.0)
            << "dim " << i;
    }
    // Spends the whole budget.
    EXPECT_NEAR(r.bw[0] + r.bw[1] + r.bw[2], 100.0, 1e-3);
}

TEST(Optimizer, PerfOptNeverWorseThanEqualBw)
{
    Network net = topo::fourD4K();
    BwOptimizer opt(net, CostModel::defaultModel());
    for (const auto& w :
         {wl::turingNlg(4096), wl::gpt3(4096), wl::msft1T(4096)}) {
        std::vector<TargetWorkload> targets{{w, 1.0}};
        auto cfg = fastConfig(OptimizationObjective::PerfOpt, 500.0);
        OptimizationResult best = opt.optimize(targets, cfg);
        OptimizationResult base = opt.baseline(targets, cfg);
        EXPECT_LE(best.weightedTime, base.weightedTime * (1.0 + 1e-6))
            << w.name;
    }
}

TEST(Optimizer, PerfPerCostNeverWorseOnPerfPerCost)
{
    Network net = topo::fourD4K();
    BwOptimizer opt(net, CostModel::defaultModel());
    std::vector<TargetWorkload> targets{{wl::msft1T(4096), 1.0}};
    auto cfg =
        fastConfig(OptimizationObjective::PerfPerCostOpt, 500.0);
    OptimizationResult best = opt.optimize(targets, cfg);
    OptimizationResult base = opt.baseline(targets, cfg);
    EXPECT_LE(best.weightedTime * best.cost,
              base.weightedTime * base.cost);
}

TEST(Optimizer, PerfPerCostSpendsFullBudgetByDefault)
{
    // The paper's scheme distributes a fixed BW resource; PerfPerCost
    // changes where the bandwidth goes, not how much is bought.
    Network net = topo::fourD4K();
    BwOptimizer opt(net, CostModel::defaultModel());
    std::vector<TargetWorkload> targets{{wl::resnet50(4096), 1.0}};
    auto cfg =
        fastConfig(OptimizationObjective::PerfPerCostOpt, 1000.0);
    OptimizationResult r = opt.optimize(targets, cfg);
    double spent = 0.0;
    for (double b : r.bw)
        spent += b;
    EXPECT_NEAR(spent, 1000.0, 1e-3);
}

TEST(Optimizer, RelaxedBudgetMayUnderspend)
{
    Network net = topo::fourD4K();
    BwOptimizer opt(net, CostModel::defaultModel());
    std::vector<TargetWorkload> targets{{wl::resnet50(4096), 1.0}};
    auto cfg =
        fastConfig(OptimizationObjective::PerfPerCostOpt, 1000.0);
    cfg.relaxTotalBw = true;
    OptimizationResult r = opt.optimize(targets, cfg);
    double spent = 0.0;
    for (double b : r.bw)
        spent += b;
    // Compute-bound vision training: most of the budget is not worth
    // its dollars once the budget becomes a ceiling.
    EXPECT_LT(spent, 900.0);
}

TEST(Optimizer, RespectsTextConstraints)
{
    Network net = topo::fourD4K();
    BwOptimizer opt(net, CostModel::defaultModel());
    std::vector<TargetWorkload> targets{{wl::msft1T(4096), 1.0}};
    auto cfg = fastConfig(OptimizationObjective::PerfOpt, 500.0);
    cfg.constraints.push_back("B4 <= 50");
    cfg.constraints.push_back("B1 >= B2");
    OptimizationResult r = opt.optimize(targets, cfg);
    EXPECT_LE(r.bw[3], 50.0 + 1e-4);
    EXPECT_GE(r.bw[0], r.bw[1] - 1e-4);
}

TEST(Optimizer, RespectsDollarCap)
{
    Network net = topo::fourD4K();
    CostModel cm = CostModel::defaultModel();
    BwOptimizer opt(net, cm);
    std::vector<TargetWorkload> targets{{wl::gpt3(4096), 1.0}};
    auto cfg = fastConfig(OptimizationObjective::PerfOpt, 1000.0);
    cfg.budgetCap = 15e6; // $15M (the Fig. 19 iso-cost setting).
    // Under a dollar cap the BW budget becomes an upper bound.
    cfg.relaxTotalBw = true;
    OptimizationResult r = opt.optimize(targets, cfg);
    EXPECT_LE(r.cost, 15e6 * (1.0 + 1e-6));
}

TEST(Optimizer, GroupOptimizationCoversAllTargets)
{
    Network net = topo::fourD4K();
    BwOptimizer opt(net, CostModel::defaultModel());
    TrainingEstimator est(net);

    std::vector<TargetWorkload> targets;
    for (auto& w :
         {wl::turingNlg(4096), wl::gpt3(4096), wl::msft1T(4096)})
        targets.push_back({w, 1.0});
    targets = normalizeWeights(est, targets, 500.0);

    auto cfg = fastConfig(OptimizationObjective::PerfOpt, 500.0);
    OptimizationResult group = opt.optimize(targets, cfg);

    // The group design must be within 2.2x of each workload's own
    // optimum (the paper reports ~1.01x average slowdown; we allow a
    // loose bound for solver tolerance).
    for (std::size_t i = 0; i < targets.size(); ++i) {
        std::vector<TargetWorkload> solo{{targets[i].workload, 1.0}};
        OptimizationResult own = opt.optimize(solo, cfg);
        EXPECT_LE(group.perWorkloadTime[i],
                  own.weightedTime * 2.2)
            << targets[i].workload.name;
    }
}

TEST(Optimizer, EvaluateReportsConsistentMetrics)
{
    Network net = topo::threeD512();
    CostModel cm = CostModel::defaultModel();
    BwOptimizer opt(net, cm);
    std::vector<TargetWorkload> targets{{wl::turingNlg(512), 1.0}};
    auto cfg = fastConfig(OptimizationObjective::PerfOpt, 300.0);
    BwConfig bw = net.equalBw(300.0);
    OptimizationResult r = opt.evaluate(bw, targets, cfg);
    EXPECT_NEAR(r.cost, cm.networkCost(net, bw), 1e-6);
    ASSERT_EQ(r.perWorkloadTime.size(), 1u);
    EXPECT_NEAR(r.perWorkloadTime[0], r.weightedTime, 1e-12);
}

TEST(Optimizer, NoTargetsThrows)
{
    Network net = topo::threeD512();
    BwOptimizer opt(net, CostModel::defaultModel());
    EXPECT_THROW(
        opt.optimize({}, fastConfig(OptimizationObjective::PerfOpt, 100)),
        FatalError);
}

TEST(Optimizer, ObjectiveNames)
{
    EXPECT_EQ(objectiveName(OptimizationObjective::PerfOpt),
              "PerfOptBW");
    EXPECT_EQ(objectiveName(OptimizationObjective::PerfPerCostOpt),
              "PerfPerCostOptBW");
}

/** Parameterized sweep: PerfOpt beats EqualBW across BW budgets. */
class OptimizerBwSweep : public ::testing::TestWithParam<double>
{};

TEST_P(OptimizerBwSweep, SpeedupAtLeastOne)
{
    Network net = topo::threeD4K();
    BwOptimizer opt(net, CostModel::defaultModel());
    std::vector<TargetWorkload> targets{{wl::msft1T(4096), 1.0}};
    auto cfg = fastConfig(OptimizationObjective::PerfOpt, GetParam());
    cfg.search.starts = 2;
    OptimizationResult best = opt.optimize(targets, cfg);
    OptimizationResult base = opt.baseline(targets, cfg);
    EXPECT_GE(base.weightedTime / best.weightedTime, 1.0 - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Budgets, OptimizerBwSweep,
                         ::testing::Values(100.0, 300.0, 1000.0));

TEST(Optimizer, NonFiniteBudgetsAndWeightsAreFatal)
{
    // API callers that skip the study parser get an answer, not a
    // search over NaN objectives.
    Network net = Network::parse("RI(4)_RI(4)");
    BwOptimizer opt(net, CostModel::defaultModel());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    Workload w = singleCollective(net, 1e9);
    for (double bad : {nan, inf, -inf}) {
        OptimizerConfig cfg = fastConfig(OptimizationObjective::PerfOpt,
                                         bad);
        EXPECT_THROW(opt.optimize({{w, 1.0}}, cfg), FatalError);
        EXPECT_THROW(opt.baseline({{w, 1.0}}, cfg), FatalError);
        cfg.totalBw = 100.0;
        EXPECT_THROW(opt.optimize({{w, bad}}, cfg), FatalError);
        EXPECT_THROW(opt.baseline({{w, bad}}, cfg), FatalError);
        cfg.budgetCap = bad;
        EXPECT_THROW(opt.optimize({{w, 1.0}}, cfg), FatalError);
    }
}

} // namespace
} // namespace libra
