/**
 * @file
 * The parallel evaluation engine's determinism guarantee: optimize()
 * must return bit-identical results at any thread count. Covers a
 * fig09-style 3D bandwidth-allocation study and a fig16-style
 * topology-exploration point, plus the parallel study-sweep path.
 */

#include <string>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/thread_pool.hh"
#include "core/framework.hh"
#include "core/objective.hh"
#include "core/optimizer.hh"
#include "core/study_config.hh"
#include "core/timing_backend.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

/** Run @p fn under each thread count; every result must match the first
 *  bit-for-bit. */
void
expectIdenticalAcrossThreadCounts(
    const std::function<OptimizationResult()>& fn)
{
    ThreadPool::setGlobalThreads(1);
    OptimizationResult serial = fn();
    for (std::size_t threads : {2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        OptimizationResult parallel = fn();
        ASSERT_EQ(serial.bw.size(), parallel.bw.size());
        for (std::size_t i = 0; i < serial.bw.size(); ++i) {
            EXPECT_EQ(serial.bw[i], parallel.bw[i])
                << "dim " << i << " at " << threads << " threads";
        }
        EXPECT_EQ(serial.objectiveValue, parallel.objectiveValue)
            << threads << " threads";
        EXPECT_EQ(serial.weightedTime, parallel.weightedTime)
            << threads << " threads";
    }
    ThreadPool::setGlobalThreads(1);
}

/** Fig. 9 setting: distribute BW over a 3D 64-NPU network. */
TEST(ParallelDeterminism, Fig09StyleAllocation)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    Workload w;
    w.name = "fig09-ar";
    w.strategy = {1, net.npus()};
    Layer l;
    l.wgComm.push_back(
        {CollectiveType::AllReduce, CommScope::Dp, 1e9});
    w.layers.push_back(l);

    expectIdenticalAcrossThreadCounts([&] {
        BwOptimizer opt(net, CostModel::defaultModel());
        OptimizerConfig cfg;
        cfg.totalBw = 300.0;
        cfg.search.starts = 6;
        return opt.optimize({{w, 1.0}}, cfg);
    });
}

/** Fig. 16 setting: MSFT-1T on the 3D-512 topology. */
TEST(ParallelDeterminism, Fig16StyleTopologyPoint)
{
    Network net = topo::threeD512();
    Workload w = wl::msft1T(net.npus());

    expectIdenticalAcrossThreadCounts([&] {
        BwOptimizer opt(net, CostModel::defaultModel());
        OptimizerConfig cfg;
        cfg.totalBw = 500.0;
        cfg.search.starts = 3;
        cfg.objective = OptimizationObjective::PerfPerCostOpt;
        return opt.optimize({{w, 1.0}}, cfg);
    });
}

/**
 * The new global strategies batch population evaluations on the pool,
 * so they must uphold the same contract: selecting them via the
 * pipeline spec yields bit-identical designs at any thread count.
 */
TEST(ParallelDeterminism, CmaesAndDePipelinesAreThreadCountInvariant)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    Workload w = wl::resnet50(net.npus());

    for (const char* solver : {"cmaes", "de"}) {
        SCOPED_TRACE(solver);
        expectIdenticalAcrossThreadCounts([&] {
            BwOptimizer opt(net, CostModel::defaultModel());
            OptimizerConfig cfg;
            cfg.totalBw = 300.0;
            cfg.search.starts = 2;
            cfg.search.pipeline = {solver, "pattern-search"};
            cfg.objective = OptimizationObjective::PerfPerCostOpt;
            return opt.optimize({{w, 1.0}}, cfg);
        });
    }
}

/**
 * The compiled objective's batched facet fans fixed 32-candidate
 * blocks across the pool, so its output must be bit-identical at any
 * thread count — this is what makes the batched CMA-ES and DE
 * generations above thread-count invariant in the first place.
 */
TEST(ParallelDeterminism, EvaluateBatchIsThreadCountInvariant)
{
    Network net = topo::threeD512();
    Workload w = wl::msft1T(net.npus());
    TrainingEstimator est(net);
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets = {{w, 1.0}};
    ScalarObjective f = makeObjective(
        OptimizationObjective::PerfPerCostOpt, est, cost, targets);
    const BatchEvaluable* batch = batchFacet(f);
    ASSERT_NE(batch, nullptr);

    Rng rng(0xBA7C4);
    std::vector<Vec> pool;
    for (int i = 0; i < 100; ++i) {
        Vec bw = rng.simplexPoint(net.numDims(), 600.0);
        for (auto& b : bw)
            b = std::max(b, 1.0);
        pool.push_back(std::move(bw));
    }

    ThreadPool::setGlobalThreads(1);
    std::vector<double> serial(pool.size(), -1.0);
    batch->evaluateBatch(pool.data(), pool.size(), serial.data());
    for (std::size_t threads : {2, 8}) {
        ThreadPool::setGlobalThreads(threads);
        std::vector<double> parallel(pool.size(), -2.0);
        batch->evaluateBatch(pool.data(), pool.size(),
                             parallel.data());
        for (std::size_t i = 0; i < pool.size(); ++i) {
            EXPECT_EQ(serial[i], parallel[i])
                << "candidate " << i << " at " << threads
                << " threads";
        }
    }
    ThreadPool::setGlobalThreads(1);
}

/**
 * A 17-dimension objective gives each subgradient iterate 34 gradient
 * probes, more than one 32-candidate evaluateBatch block. With the
 * multistart fan-out off, the search runs on the calling thread, so
 * the gradient batch itself fans its blocks across the pool — and
 * optimize() must still be bit-identical at any thread count.
 */
TEST(ParallelDeterminism, MultiBlockGradientBatchIsThreadCountInvariant)
{
    std::string text;
    for (int i = 0; i < 17; ++i)
        text += i == 0 ? "RI(2)" : (i % 2 ? "_FC(2)" : "_RI(2)");
    Network net = Network::parse(text);
    ASSERT_EQ(net.numDims(), 17u);

    Workload w;
    w.name = "wide-17d";
    w.strategy = {2, net.npus() / 2};
    Layer l;
    l.fwdCompute = 1e-3;
    l.fwdComm.push_back({CollectiveType::AllGather, CommScope::Tp, 3e8});
    l.wgComm.push_back({CollectiveType::AllReduce, CommScope::Dp, 5e8});
    l.wgComm.push_back({CollectiveType::AllToAll, CommScope::All, 1e8});
    w.layers.push_back(l);

    expectIdenticalAcrossThreadCounts([&] {
        BwOptimizer opt(net, CostModel::defaultModel());
        OptimizerConfig cfg;
        cfg.totalBw = 1700.0;
        cfg.search.starts = 1;
        cfg.search.parallel = false;
        return opt.optimize({{w, 1.0}}, cfg);
    });
}

/**
 * The chunk-sim timing backend runs inside the parallel multistart
 * fan-out (named backends, unlike ad-hoc commTimeFns, keep
 * search.parallel on), so it must uphold the same contract: same
 * winner and timings at 1, 2, and max threads — with the per-thread
 * memoization cache both on and off.
 */
TEST(ParallelDeterminism, ChunkSimBackendIsThreadCountInvariant)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    Workload w = wl::resnet50(net.npus());

    for (bool memo : {true, false}) {
        SCOPED_TRACE(memo ? "memo on" : "memo off");
        setChunkSimMemoEnabled(memo);
        expectIdenticalAcrossThreadCounts([&] {
            BwOptimizer opt(net, CostModel::defaultModel());
            OptimizerConfig cfg;
            cfg.totalBw = 300.0;
            cfg.search.starts = 2;
            cfg.search.maxEvalsPerStart = 200;
            cfg.estimator.timingBackend = kChunkSimTimingBackendName;
            return opt.optimize({{w, 1.0}}, cfg);
        });
    }
    setChunkSimMemoEnabled(true);

    // Memo on/off must also agree with each other, not just with
    // themselves: the cache only amortizes, never alters.
    setChunkSimMemoEnabled(false);
    BwOptimizer opt(net, CostModel::defaultModel());
    OptimizerConfig cfg;
    cfg.totalBw = 300.0;
    cfg.search.starts = 2;
    cfg.search.maxEvalsPerStart = 200;
    cfg.estimator.timingBackend = kChunkSimTimingBackendName;
    OptimizationResult direct = opt.optimize({{w, 1.0}}, cfg);
    setChunkSimMemoEnabled(true);
    OptimizationResult memoized = opt.optimize({{w, 1.0}}, cfg);
    EXPECT_EQ(direct.objectiveValue, memoized.objectiveValue);
    ASSERT_EQ(direct.bw.size(), memoized.bw.size());
    for (std::size_t i = 0; i < direct.bw.size(); ++i)
        EXPECT_EQ(direct.bw[i], memoized.bw[i]);
}

/** A parallel sweep must match point-by-point serial runs exactly. */
TEST(ParallelDeterminism, SweepMatchesStandaloneRuns)
{
    std::vector<LibraInputs> points;
    for (double bw : {250.0, 500.0}) {
        LibraInputs p;
        p.networkShape = "RI(4)_FC(4)_SW(4)";
        p.targets.push_back(
            {zooWorkloadByName("resnet50",
                               Network::parse(p.networkShape).npus()),
             1.0});
        p.config.totalBw = bw;
        p.config.search.starts = 2;
        points.push_back(std::move(p));
    }

    ThreadPool::setGlobalThreads(1);
    std::vector<LibraReport> serial;
    for (const auto& p : points)
        serial.push_back(runLibra(p));

    ThreadPool::setGlobalThreads(4);
    std::vector<LibraReport> swept = runLibraSweep(points);
    ThreadPool::setGlobalThreads(1);

    ASSERT_EQ(serial.size(), swept.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].optimized.objectiveValue,
                  swept[i].optimized.objectiveValue);
        EXPECT_EQ(serial[i].speedup, swept[i].speedup);
        ASSERT_EQ(serial[i].optimized.bw.size(),
                  swept[i].optimized.bw.size());
        for (std::size_t d = 0; d < serial[i].optimized.bw.size(); ++d)
            EXPECT_EQ(serial[i].optimized.bw[d],
                      swept[i].optimized.bw[d]);
    }
}

} // namespace
} // namespace libra
