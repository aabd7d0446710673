/**
 * @file
 * Cross-model integration tests: randomized workloads are evaluated by
 * the analytical estimator, the chunk-level training simulator, and
 * (where applicable) the data-carrying collective simulator, and the
 * three layers must agree. This is the repo's internal validation of
 * the paper's "LIBRA model vs ASTRA-sim" methodology.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/random.hh"
#include "core/estimator.hh"
#include "core/optimizer.hh"
#include "sim/collective_sim.hh"
#include "sim/training_sim.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

/** Uniform double in [lo, hi), one fresh distribution per draw. */
double
drawUniform(std::mt19937_64& rng, double lo, double hi)
{
    return std::uniform_real_distribution<double>(lo, hi)(rng);
}

/** Uniform integer in [lo, hi], one fresh distribution per draw. */
int
drawInt(std::mt19937_64& rng, int lo, int hi)
{
    return std::uniform_int_distribution<int>(lo, hi)(rng);
}

/** Rng::simplexPoint's draw, taken from @p rng's stream. */
std::vector<double>
drawSimplexPoint(std::mt19937_64& rng, std::size_t n, double total)
{
    std::exponential_distribution<double> dist(1.0);
    std::vector<double> v(n);
    double sum = 0.0;
    for (double& x : v) {
        x = dist(rng);
        sum += x;
    }
    for (double& x : v)
        x *= total / sum;
    return v;
}

/** Random small workload over a given strategy. */
Workload
randomWorkload(std::mt19937_64& rng, long tp, long dp)
{
    Workload w;
    w.name = "random";
    w.strategy = {tp, dp};
    std::vector<Layer> layers;
    const int count = drawInt(rng, 1, 6);
    for (int l = 0; l < count; ++l) {
        Layer layer;
        // Append instead of `"L" + to_string(...)`: GCC 12's
        // -Wrestrict false-positives on that operator+ overload.
        layer.name = "L";
        layer.name += std::to_string(l);
        layer.fwdCompute = drawUniform(rng, 0.0, 5e-3);
        layer.igCompute = drawUniform(rng, 0.0, 5e-3);
        layer.wgCompute = drawUniform(rng, 0.0, 5e-3);
        if (tp > 1 && drawInt(rng, 0, 1)) {
            layer.fwdComm.push_back({CollectiveType::AllReduce,
                                     CommScope::Tp,
                                     drawUniform(rng, 1e6, 5e8)});
            layer.igComm.push_back({CollectiveType::AllReduce,
                                    CommScope::Tp,
                                    drawUniform(rng, 1e6, 5e8)});
        }
        if (dp > 1) {
            CollectiveType t = drawInt(rng, 0, 1)
                                   ? CollectiveType::AllReduce
                                   : CollectiveType::ReduceScatter;
            layer.wgComm.push_back(
                {t, CommScope::Dp, drawUniform(rng, 1e6, 5e8)});
        }
        if (drawInt(rng, 0, 3) == 0) {
            layer.fwdComm.push_back({CollectiveType::AllToAll,
                                     CommScope::All,
                                     drawUniform(rng, 1e6, 1e8)});
        }
        layers.push_back(std::move(layer));
    }
    w.layers = std::move(layers);
    return w;
}

/** Estimator and chunk simulator agree on random workloads. */
class RandomizedAgreement : public ::testing::TestWithParam<int>
{};

TEST_P(RandomizedAgreement, EstimatorVsTrainingSim)
{
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 +
                        13);
    Network net = Network::parse("RI(4)_FC(4)_SW(4)"); // 64 NPUs.

    // Pick a valid HP split of 64.
    const long tps[] = {1, 4, 16};
    long tp = tps[drawInt(rng, 0, 2)];
    Workload w = randomWorkload(rng, tp, net.npus() / tp);

    BwConfig bw = drawSimplexPoint(rng, net.numDims(), 600.0);
    for (auto& b : bw)
        b = std::max(b, 5.0);

    for (auto loop :
         {TrainingLoop::NoOverlap, TrainingLoop::TpDpOverlap}) {
        EstimatorOptions eo;
        eo.loop = loop;
        Seconds analytic = TrainingEstimator(net, eo).estimate(w, bw);

        TrainingSimOptions so;
        so.loop = loop;
        so.chunksPerCollective = 128;
        TrainingSimResult sim = TrainingSim(net, so).simulate(w, bw);

        if (analytic <= 0.0) {
            EXPECT_NEAR(sim.total, 0.0, 1e-12);
            continue;
        }
        // The chunk pipeline can only add fill/drain overhead (and the
        // overlap sim may resolve fabric contention slightly better or
        // worse than the analytic max()).
        EXPECT_GT(sim.total, analytic * 0.9);
        EXPECT_LT(sim.total, analytic * 1.25);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedAgreement,
                         ::testing::Range(0, 25));

/** Sequential data-carrying sim matches the analytic per-dim times. */
class CollectiveCrossCheck
    : public ::testing::TestWithParam<const char*>
{};

TEST_P(CollectiveCrossCheck, DataSimVsAnalyticStageSum)
{
    Network net = Network::parse(GetParam());
    Rng rng(31);
    BwConfig bw = rng.simplexPoint(net.numDims(), 300.0);
    for (auto& b : bw)
        b = std::max(b, 5.0);

    std::size_t elems = static_cast<std::size_t>(net.npus()) * 8;
    CollectiveSim sim(net, bw, 0.0, kFp32Bytes);
    sim.init(elems, [](long id, std::size_t i) {
        return static_cast<double>(id) * 0.5 +
               static_cast<double>(i) * 0.25;
    });
    Seconds t = sim.runAllReduce();
    EXPECT_TRUE(sim.verifyAllReduce(1e-6));

    Bytes m = static_cast<double>(elems) * kFp32Bytes;
    auto spans = mapGroupToDims(net, 1, net.npus());
    auto timing = multiRailTime(CollectiveType::AllReduce, m, spans, bw);
    Seconds sum = 0.0;
    for (Seconds s : timing.timePerDim)
        sum += s;
    EXPECT_NEAR(t, sum, sum * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Shapes, CollectiveCrossCheck,
                         ::testing::Values("RI(4)_FC(4)_SW(4)",
                                           "SW(8)_SW(8)",
                                           "RI(4)_RI(4)_RI(4)",
                                           "FC(8)_RI(2)"));

TEST(Integration, EndToEndStudyOnEveryTableThreeTopology)
{
    // Smoke: a full optimize+baseline cycle on each evaluation network
    // with a matching workload, all results sane.
    for (const auto& [label, net] : topo::tableThree()) {
        long npus = net.npus();
        Workload w = npus % 128 == 0 ? wl::msft1T(npus)
                                     : wl::resnet50(npus);
        BwOptimizer opt(net, CostModel::defaultModel());
        OptimizerConfig cfg;
        cfg.totalBw = 300.0;
        cfg.search.starts = 1;
        OptimizationResult best = opt.optimize({{w, 1.0}}, cfg);
        OptimizationResult base = opt.baseline({{w, 1.0}}, cfg);
        EXPECT_LE(best.weightedTime, base.weightedTime * (1 + 1e-9))
            << label;
        EXPECT_GT(best.cost, 0.0) << label;
        double total = 0.0;
        for (double b : best.bw)
            total += b;
        EXPECT_NEAR(total, 300.0, 1e-3) << label;
    }
}

} // namespace
} // namespace libra
