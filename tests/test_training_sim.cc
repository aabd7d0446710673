/**
 * @file
 * Tests for the event-driven training-loop simulator and its agreement
 * with the analytical estimator.
 */

#include <gtest/gtest.h>

#include "collective/mapping.hh"
#include "common/logging.hh"
#include "core/estimator.hh"
#include "sim/training_sim.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

TEST(TrainingSim, AgreesWithEstimatorNoOverlap)
{
    // With many chunks the chunk pipeline converges to the analytical
    // bottleneck model; end-to-end times should agree within a few %.
    Network net = topo::fourD4K();
    Workload w = wl::msft1T(net.npus());
    BwConfig bw = net.equalBw(300.0);

    TrainingEstimator est(net);
    TrainingSimOptions opt;
    opt.chunksPerCollective = 64;
    TrainingSim sim(net, opt);

    Seconds analytic = est.estimate(w, bw);
    TrainingSimResult r = sim.simulate(w, bw);
    EXPECT_NEAR(r.total, analytic, 0.08 * analytic);
    EXPECT_GE(r.total, analytic * 0.999); // Pipeline can't beat ideal.
}

TEST(TrainingSim, OverlapNoSlowerThanNoOverlap)
{
    Network net = topo::fourD4K();
    Workload w = wl::gpt3(net.npus());
    BwConfig bw = net.equalBw(300.0);

    TrainingSimOptions noOv;
    TrainingSimOptions ov;
    ov.loop = TrainingLoop::TpDpOverlap;
    TrainingSimResult a = TrainingSim(net, noOv).simulate(w, bw);
    TrainingSimResult b = TrainingSim(net, ov).simulate(w, bw);
    EXPECT_LE(b.total, a.total * 1.001);
}

TEST(TrainingSim, ComputeOnlyWorkloadHasNoCommTime)
{
    Network net = Network::parse("RI(4)");
    Workload w;
    w.strategy = {1, 4};
    Layer l;
    l.fwdCompute = 1.0;
    l.igCompute = 0.5;
    l.wgCompute = 0.25;
    w.layers.push_back(l);

    TrainingSimResult r = TrainingSim(net).simulate(w, {10.0});
    EXPECT_NEAR(r.total, 1.75, 1e-12);
    EXPECT_DOUBLE_EQ(r.commTime, 0.0);
    EXPECT_DOUBLE_EQ(r.avgBwUtilization, 0.0);
}

TEST(TrainingSim, UtilizationWithinBounds)
{
    Network net = topo::threeD4K();
    Workload w = wl::msft1T(net.npus());
    TrainingSimResult r =
        TrainingSim(net).simulate(w, net.equalBw(300.0));
    EXPECT_GT(r.avgBwUtilization, 0.0);
    EXPECT_LE(r.avgBwUtilization, 1.0 + 1e-9);
}

TEST(TrainingSim, BetterBwSplitRaisesUtilization)
{
    // The Fig. 10 claim: a workload-aware split utilizes the fabric
    // better than EqualBW.
    Network net = topo::threeD4K();
    Workload w = wl::msft1T(net.npus());
    TrainingSim sim(net);

    TrainingSimResult equal = sim.simulate(w, net.equalBw(300.0));
    // Skew BW toward the traffic profile (dim 1 >> dim 2 >> dim 3).
    TrainingSimResult skewed =
        sim.simulate(w, BwConfig{255.0, 30.0, 15.0});
    EXPECT_GT(skewed.avgBwUtilization, equal.avgBwUtilization);
    EXPECT_LT(skewed.total, equal.total);
}

TEST(TrainingSim, MismatchedWorkloadThrows)
{
    Network net = topo::fourD4K();
    Workload w = wl::gpt3(1024);
    EXPECT_THROW(TrainingSim(net).simulate(w, net.equalBw(100.0)),
                 FatalError);
}

TEST(TrainingSim, DpOnlyWorkloadOnTorus)
{
    Network net = topo::threeDTorus();
    Workload w = wl::resnet50(net.npus());
    TrainingSimResult r =
        TrainingSim(net).simulate(w, net.equalBw(300.0));
    EXPECT_GT(r.total, 0.0);
    EXPECT_GT(r.commTime, 0.0);
    ASSERT_EQ(r.dimBusy.size(), 3u);
    // DP spans all dims; with prefix reduction dim 1 works hardest.
    EXPECT_GT(r.dimBusy[0], r.dimBusy[1]);
    EXPECT_GT(r.dimBusy[1], r.dimBusy[2]);
}

// --- Per-call timeline memo ------------------------------------------

/**
 * Memo-free reference for TrainingSim::simulate: the same training
 * loop, with a fresh ChunkTimeline::run for every collective of every
 * layer and the same additions in the same order.
 */
TrainingSimResult
replayPerLayer(const Network& net, const TrainingSimOptions& opt,
               const Workload& w, const BwConfig& bw)
{
    ChunkTimeline timeline(net.numDims(), bw);
    auto jobsFor = [&](const std::vector<CommOp>& ops, Seconds release) {
        std::vector<CollectiveJob> jobs;
        const Parallelization& p = w.strategy;
        for (const auto& op : ops) {
            bool eff = opt.modelPartialDimEfficiency;
            std::vector<DimSpan> spans;
            switch (op.scope) {
              case CommScope::Tp:
                spans = mapGroupToDims(net, 1, p.tp, eff);
                break;
              case CommScope::Pp:
                spans = mapGroupToDims(net, p.tp, p.pp, eff);
                break;
              case CommScope::Dp:
                spans = mapGroupToDims(net, p.tp * p.pp, p.dp, eff);
                break;
              case CommScope::All:
                spans = mapGroupToDims(net, 1, net.npus(), eff);
                break;
            }
            if (spans.empty())
                continue;
            CollectiveJob job;
            job.type = op.type;
            job.size = op.size;
            job.spans = std::move(spans);
            job.numChunks = opt.chunksPerCollective;
            job.releaseTime = release;
            job.policy = opt.policy;
            jobs.push_back(std::move(job));
        }
        return jobs;
    };

    TrainingSimResult r;
    r.dimBusy.assign(net.numDims(), 0.0);
    auto accumulate = [&r](const TimelineResult& tl) {
        for (std::size_t d = 0; d < tl.dimBusy.size(); ++d)
            r.dimBusy[d] += tl.dimBusy[d];
        r.commTime += tl.makespan;
        return tl.makespan;
    };
    auto runSequential = [&](const std::vector<CommOp>& ops) {
        Seconds t = 0.0;
        for (const auto& job : jobsFor(ops, 0.0))
            t += accumulate(timeline.run({job}));
        return t;
    };

    for (const auto& layer : w.layers) {
        r.total += layer.fwdCompute;
        r.computeTotal += layer.fwdCompute;
        r.total += runSequential(layer.fwdComm);
        if (opt.loop == TrainingLoop::NoOverlap) {
            r.total += layer.igCompute;
            r.computeTotal += layer.igCompute;
            r.total += runSequential(layer.igComm);
            r.total += layer.wgCompute;
            r.computeTotal += layer.wgCompute;
            r.total += runSequential(layer.wgComm);
            continue;
        }
        r.total += layer.igCompute;
        r.computeTotal += layer.igCompute + layer.wgCompute;
        auto jobs = jobsFor(layer.igComm, 0.0);
        auto wgJobs = jobsFor(layer.wgComm, layer.wgCompute);
        jobs.insert(jobs.end(), wgJobs.begin(), wgJobs.end());
        r.total += jobs.empty() ? layer.wgCompute
                                : std::max(accumulate(timeline.run(jobs)),
                                           layer.wgCompute);
    }

    double sumBw = 0.0;
    double weighted = 0.0;
    for (std::size_t d = 0; d < net.numDims(); ++d) {
        sumBw += bw[d];
        weighted += r.dimBusy[d] * bw[d];
    }
    if (r.commTime > 0.0 && sumBw > 0.0)
        r.avgBwUtilization = weighted / (r.commTime * sumBw);
    return r;
}

/** simulate() must match the memo-free replay bit for bit. */
void
expectMatchesReplay(const Network& net, const TrainingSimOptions& opt,
                    const Workload& w, const BwConfig& bw)
{
    TrainingSimResult got = TrainingSim(net, opt).simulate(w, bw);
    TrainingSimResult want = replayPerLayer(net, opt, w, bw);
    EXPECT_GT(want.commTime, 0.0);
    EXPECT_EQ(got.total, want.total);
    EXPECT_EQ(got.commTime, want.commTime);
    EXPECT_EQ(got.computeTotal, want.computeTotal);
    EXPECT_EQ(got.dimBusy, want.dimBusy);
    EXPECT_EQ(got.avgBwUtilization, want.avgBwUtilization);
}

TEST(TrainingSimMemo, RepeatedLayersMatchReplayNoOverlap)
{
    // MSFT-1T: 128 identical layers, so all but the first layer's
    // collectives replay from the memo.
    Network net = topo::threeD4K();
    expectMatchesReplay(net, {}, wl::msft1T(net.npus()),
                        BwConfig{255.0, 30.0, 15.0});
}

TEST(TrainingSimMemo, RepeatedLayersMatchReplayTpDpOverlap)
{
    Network net = topo::threeD4K();
    TrainingSimOptions opt;
    opt.loop = TrainingLoop::TpDpOverlap;
    expectMatchesReplay(net, opt, wl::msft1T(net.npus()),
                        net.equalBw(300.0));
}

TEST(TrainingSimMemo, RepeatedLayersMatchReplayGreedy)
{
    Network net = topo::fourD4K();
    TrainingSimOptions opt;
    opt.policy = SchedulePolicy::Greedy;
    opt.chunksPerCollective = 16;
    expectMatchesReplay(net, opt, wl::gpt3(net.npus()),
                        net.equalBw(300.0));
    opt.loop = TrainingLoop::TpDpOverlap;
    expectMatchesReplay(net, opt, wl::gpt3(net.npus()),
                        net.equalBw(300.0));
}

TEST(TrainingSimMemo, DistinctLayersMatchReplay)
{
    // ResNet-50's layers differ in size, so the memo misses too.
    Network net = topo::threeDTorus();
    expectMatchesReplay(net, {}, wl::resnet50(net.npus()),
                        net.equalBw(300.0));
    TrainingSimOptions opt;
    opt.loop = TrainingLoop::TpDpOverlap;
    expectMatchesReplay(net, opt, wl::resnet50(net.npus()),
                        BwConfig{150.0, 100.0, 50.0});
}

/** Parameterized: simulator tracks estimator across BW budgets. */
class TrainingSimSweep : public ::testing::TestWithParam<double>
{};

TEST_P(TrainingSimSweep, TracksEstimator)
{
    Network net = topo::threeD4K();
    Workload w = wl::gpt3(net.npus());
    BwConfig bw = net.equalBw(GetParam());
    Seconds analytic = TrainingEstimator(net).estimate(w, bw);
    TrainingSimResult r = TrainingSim(net).simulate(w, bw);
    EXPECT_NEAR(r.total, analytic, 0.10 * analytic);
}

INSTANTIATE_TEST_SUITE_P(Budgets, TrainingSimSweep,
                         ::testing::Values(100.0, 300.0, 600.0, 1000.0));

} // namespace
} // namespace libra
