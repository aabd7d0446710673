/**
 * @file
 * Tests for the LIBRA bandwidth optimizer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>

#include "common/logging.hh"
#include "core/optimizer.hh"
#include "core/timing_backend.hh"
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
    w.layers = {l};
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

// --- Cross-fidelity search -----------------------------------------------

/**
 * A test backend on the cross-fidelity path that counts its timing()
 * calls. It is the analytical model slowed by up to 5% as dimension 0
 * takes more of the bandwidth, so its optimum differs from the
 * analytical winner's and the polish has work to do.
 */
class CountingTimingBackend final : public TimingBackend
{
  public:
    std::string name() const override { return "test-counting-cross"; }
    std::string description() const override { return "test backend"; }
    bool searchesAnalytically() const override { return true; }

    CollectiveTiming
    timing(CollectiveType type, Bytes size,
           const std::vector<DimSpan>& spans, const BwConfig& bw,
           bool in_network) const override
    {
        calls.fetch_add(1, std::memory_order_relaxed);
        CollectiveTiming t = multiRailTime(type, size, spans, bw, in_network);
        double total = 0.0;
        for (double b : bw)
            total += b;
        t.time *= 1.0 + 0.05 * bw[0] / total;
        return t;
    }

    mutable std::atomic<long long> calls{0};
};

CountingTimingBackend&
countingBackend()
{
    static CountingTimingBackend* backend = [] {
        auto owned = std::make_unique<CountingTimingBackend>();
        CountingTimingBackend* raw = owned.get();
        TimingBackendRegistry::global().add(std::move(owned));
        return raw;
    }();
    return *backend;
}

/**
 * Backend evaluations optimize() makes besides the polish: the EqualBW
 * guard (1) and the reported evaluate() — weighted time, per-workload
 * time and objective (3). With one single-collective target, every
 * evaluation is exactly one timing() call.
 */
constexpr long long kFixedBackendEvals = 4;

/** Backend timing() calls one optimize() makes. */
long long
backendEvals(const BwOptimizer& opt, const std::vector<TargetWorkload>& targets,
             const OptimizerConfig& cfg)
{
    CountingTimingBackend& backend = countingBackend();
    backend.calls = 0;
    opt.optimize(targets, cfg);
    return backend.calls.load();
}

TEST(CrossFidelity, BackendEvaluationsDoNotGrowWithStarts)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    BwOptimizer opt(net, CostModel::defaultModel());
    std::vector<TargetWorkload> targets{{singleCollective(net, 1e9), 1.0}};
    OptimizerConfig cfg = fastConfig(OptimizationObjective::PerfOpt, 300.0);
    cfg.estimator.timingBackend = countingBackend().name();
    // Uncapped, the polish is a 4000-poll compass search that may
    // finish its last coordinate pair, plus its start point.
    const long long cap = 4000 + 2 + kFixedBackendEvals;
    for (int starts : {0, 2, 16}) {
        cfg.search.starts = starts;
        long long evals = backendEvals(opt, targets, cfg);
        EXPECT_GT(evals, kFixedBackendEvals) << starts;
        EXPECT_LE(evals, cap) << starts;
    }
}

TEST(CrossFidelity, MaxEvalsBoundsThePolish)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    BwOptimizer opt(net, CostModel::defaultModel());
    std::vector<TargetWorkload> targets{{singleCollective(net, 1e9), 1.0}};
    for (auto objective : {OptimizationObjective::PerfOpt,
                           OptimizationObjective::PerfPerCostOpt}) {
        OptimizerConfig cfg = fastConfig(objective, 300.0);
        cfg.estimator.timingBackend = countingBackend().name();
        for (long long n : {1, 2, 3, 4, 7, 50}) {
            cfg.search.maxEvalsPerStart = n;
            for (int starts : {2, 16}) {
                cfg.search.starts = starts;
                EXPECT_LE(backendEvals(opt, targets, cfg) -
                              kFixedBackendEvals,
                          n)
                    << "MAX_EVALS " << n << ", " << starts << " starts";
            }
        }
    }
}

/**
 * Under the backend's own objective, the cross-fidelity result is
 * never worse than the analytical winner or EqualBW.
 */
TEST(CrossFidelity, NeverWorseThanTheAnalyticalWinnerOrEqualBw)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    BwOptimizer opt(net, CostModel::defaultModel());
    const std::vector<std::vector<TargetWorkload>> studies{
        {{singleCollective(net, 1e9), 1.0}},
        {{wl::resnet50(net.npus()), 1.0}},
    };
    for (const std::string& backend :
         {countingBackend().name(), std::string(kChunkSimTimingBackendName)}) {
        for (auto objective : {OptimizationObjective::PerfOpt,
                               OptimizationObjective::PerfPerCostOpt}) {
            for (const auto& targets : studies) {
                SCOPED_TRACE(backend + " " + objectiveName(objective) +
                             " " + targets[0].workload.name);
                OptimizerConfig analytical = fastConfig(objective, 300.0);
                analytical.search.maxEvalsPerStart = 200;
                OptimizerConfig cfg = analytical;
                cfg.estimator.timingBackend = backend;

                OptimizationResult winner = opt.optimize(targets, analytical);
                OptimizationResult r = opt.optimize(targets, cfg);
                EXPECT_LE(r.objectiveValue,
                          opt.evaluate(winner.bw, targets, cfg).objectiveValue);
                EXPECT_LE(r.objectiveValue,
                          opt.baseline(targets, cfg).objectiveValue);
            }
        }
    }
}

} // namespace
} // namespace libra
