/**
 * @file
 * Property tests: the compiled fast-path evaluator must be bit-exact
 * against the direct estimator across workloads, loops, networks, and
 * bandwidth configurations.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/estimator.hh"
#include "core/timing_backend.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

struct CompiledCase
{
    const char* network;
    const char* workload;
    TrainingLoop loop;
};

class CompiledEquivalence
    : public ::testing::TestWithParam<CompiledCase>
{
  protected:
    static Workload
    makeWorkload(const std::string& name, long npus)
    {
        if (name == "turing")
            return wl::turingNlg(npus);
        if (name == "gpt3")
            return wl::gpt3(npus);
        if (name == "msft")
            return wl::msft1T(npus);
        if (name == "dlrm")
            return wl::dlrm(npus);
        if (name == "resnet")
            return wl::resnet50(npus);
        if (name == "gpt3-pp")
            return wl::gpt3WithStrategy(16, 8, npus / 128);
        panic("unknown workload tag");
    }
};

TEST_P(CompiledEquivalence, MatchesDirectEstimator)
{
    const auto& param = GetParam();
    Network net = Network::parse(param.network);
    EstimatorOptions opt;
    opt.loop = param.loop;
    TrainingEstimator est(net, opt);
    Workload w = makeWorkload(param.workload, net.npus());
    CompiledWorkload cw = est.compile(w);

    Rng rng(99);
    for (int trial = 0; trial < 12; ++trial) {
        BwConfig bw = rng.simplexPoint(net.numDims(), 800.0);
        for (auto& b : bw)
            b = std::max(b, 1.0);
        ASSERT_NEAR(cw.estimate(bw), est.estimate(w, bw),
                    1e-12 * est.estimate(w, bw))
            << param.network << "/" << param.workload;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CompiledEquivalence,
    ::testing::Values(
        CompiledCase{"RI(4)_FC(8)_RI(4)_SW(32)", "msft",
                     TrainingLoop::NoOverlap},
        CompiledCase{"RI(4)_FC(8)_RI(4)_SW(32)", "msft",
                     TrainingLoop::TpDpOverlap},
        CompiledCase{"RI(4)_FC(8)_RI(4)_SW(32)", "gpt3",
                     TrainingLoop::NoOverlap},
        CompiledCase{"RI(4)_FC(8)_RI(4)_SW(32)", "gpt3-pp",
                     TrainingLoop::TpDpOverlap},
        CompiledCase{"RI(16)_FC(8)_SW(32)", "turing",
                     TrainingLoop::NoOverlap},
        CompiledCase{"SW(16)_SW(8)_SW(4)", "dlrm",
                     TrainingLoop::TpDpOverlap},
        CompiledCase{"SW(16)_SW(8)_SW(4)", "resnet",
                     TrainingLoop::NoOverlap}));

TEST(Compiled, InNetworkFlagRespected)
{
    Network net = topo::threeD512();
    EstimatorOptions opt;
    opt.inNetworkCollectives = true;
    TrainingEstimator est(net, opt);
    Workload w = wl::resnet50(net.npus());
    CompiledWorkload cw = est.compile(w);
    BwConfig bw = net.equalBw(300.0);
    EXPECT_NEAR(cw.estimate(bw), est.estimate(w, bw), 1e-12);
}

TEST(Compiled, ChunkSimBackendRejected)
{
    Network net = Network::parse("RI(4)");
    EstimatorOptions opt;
    opt.timingBackend = kChunkSimTimingBackendName;
    TrainingEstimator est(net, opt);
    Workload w = wl::resnet50(4);
    EXPECT_THROW(est.compile(w), FatalError);
}

TEST(Compiled, MismatchedWorkloadRejected)
{
    Network net = topo::fourD4K();
    TrainingEstimator est(net);
    EXPECT_THROW(est.compile(wl::gpt3(1024)), FatalError);
}

} // namespace
} // namespace libra
