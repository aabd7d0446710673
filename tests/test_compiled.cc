/**
 * @file
 * Property tests: the compiled fast-path evaluator must be bit-exact
 * against the direct estimator across workloads, loops, networks, and
 * bandwidth configurations.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "core/estimator.hh"
#include "core/study_config.hh"
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

// --- Pinned corpus ---------------------------------------------------------

/** Expected outputs of one (network, workload, loop) corpus cell. */
struct CompiledCorpusExpected
{
    const char* name;
    Seconds values[3]; ///< One per seeded bandwidth point.
};

std::string
hex(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/**
 * The compiled estimator's output bits over every zoo workload, both
 * training loops, a 4D and a 3D network and three seeded bandwidth
 * points per network, captured as hexfloats. estimate() and
 * estimateBatch() must both reproduce them: the batch-vs-scalar tests
 * cannot see a change that moves both paths alike. A failure prints
 * the actual value.
 */
TEST(CompiledCorpus, OutputsAreBitExact)
{
    const std::vector<CompiledCorpusExpected> expected{
        {"RI(4)_FC(8)_RI(4)_SW(32)/turing-nlg/NoOverlap",
         {0x1.f4021340fae51p+1, 0x1.0490382d7c863p+2, 0x1.e986cc5ee781dp+1}},
        {"RI(4)_FC(8)_RI(4)_SW(32)/turing-nlg/TpDpOverlap",
         {0x1.f4021340fae47p+1, 0x1.0490382d7c864p+2, 0x1.e986cc5ee781ap+1}},
        {"RI(4)_FC(8)_RI(4)_SW(32)/gpt3/NoOverlap",
         {0x1.b1b9f5070effdp+4, 0x1.50dbb25dd1c24p+5, 0x1.c86d1c9431384p+4}},
        {"RI(4)_FC(8)_RI(4)_SW(32)/gpt3/TpDpOverlap",
         {0x1.7a89357f391a6p+4, 0x1.066f87bb59703p+5, 0x1.8bf69359bb4d9p+4}},
        {"RI(4)_FC(8)_RI(4)_SW(32)/msft1t/NoOverlap",
         {0x1.ed70f58c8c9ap+4, 0x1.3a4285d428108p+5, 0x1.3ab249d57663fp+5}},
        {"RI(4)_FC(8)_RI(4)_SW(32)/msft1t/TpDpOverlap",
         {0x1.a4ac83771c27dp+4, 0x1.1535f3dbff0d1p+5, 0x1.10b54e1788101p+5}},
        {"RI(4)_FC(8)_RI(4)_SW(32)/dlrm/NoOverlap",
         {0x1.12a916cbcd92fp-9, 0x1.84fd3ea7e9a45p-9, 0x1.4692ccd9002ap-7}},
        {"RI(4)_FC(8)_RI(4)_SW(32)/dlrm/TpDpOverlap",
         {0x1.12a916cbcd92dp-9, 0x1.84fd3ea7e9a46p-9, 0x1.4692ccd9002a5p-7}},
        {"RI(4)_FC(8)_RI(4)_SW(32)/resnet50/NoOverlap",
         {0x1.20c2341f3ad4ap-9, 0x1.41696e1911fe8p-9, 0x1.108d5df7b81cep-9}},
        {"RI(4)_FC(8)_RI(4)_SW(32)/resnet50/TpDpOverlap",
         {0x1.20c2341f3ad4ap-9, 0x1.41696e1911feap-9, 0x1.108d5df7b81cdp-9}},
        {"SW(16)_SW(8)_SW(4)/turing-nlg/NoOverlap",
         {0x1.775fd9db42c86p+2, 0x1.e75fa91e7fe9p+1, 0x1.e61d35505a691p+1}},
        {"SW(16)_SW(8)_SW(4)/turing-nlg/TpDpOverlap",
         {0x1.775fd9db42c97p+2, 0x1.e75fa91e7fe8bp+1, 0x1.e61d35505a68cp+1}},
        {"SW(16)_SW(8)_SW(4)/gpt3/NoOverlap",
         {0x1.f4a3fc6010eb5p+5, 0x1.6df8825cd3bfcp+4, 0x1.794358d85ceb9p+4}},
        {"SW(16)_SW(8)_SW(4)/gpt3/TpDpOverlap",
         {0x1.b19e50c6ff51ap+5, 0x1.4a0691506a017p+4, 0x1.56c0fdc9ffde5p+4}},
        {"SW(16)_SW(8)_SW(4)/msft1t/NoOverlap",
         {0x1.03f6d3ec2dfebp+7, 0x1.9eebeb9abf3f4p+4, 0x1.941f763d74806p+4}},
        {"SW(16)_SW(8)_SW(4)/msft1t/TpDpOverlap",
         {0x1.f629ff80af2ep+6, 0x1.54a86ee81ef0cp+4, 0x1.4cae4a0f66a52p+4}},
        {"SW(16)_SW(8)_SW(4)/dlrm/NoOverlap",
         {0x1.3343acb15d9d6p-7, 0x1.be51a8df7408bp-10, 0x1.f960c00258abap-10}},
        {"SW(16)_SW(8)_SW(4)/dlrm/TpDpOverlap",
         {0x1.3343acb15d9d7p-7, 0x1.be51a8df7408bp-10, 0x1.f960c00258ab9p-10}},
        {"SW(16)_SW(8)_SW(4)/resnet50/NoOverlap",
         {0x1.52398cc528c31p-8, 0x1.0d39351a52031p-9, 0x1.0b46a31b69044p-9}},
        {"SW(16)_SW(8)_SW(4)/resnet50/TpDpOverlap",
         {0x1.52398cc528c31p-8, 0x1.0d39351a52031p-9, 0x1.0b46a31b69045p-9}},
    };
    const char* networks[] = {"RI(4)_FC(8)_RI(4)_SW(32)",
                              "SW(16)_SW(8)_SW(4)"};
    const char* workloads[] = {"turing-nlg", "gpt3", "msft1t", "dlrm",
                               "resnet50"};
    std::size_t cell = 0;
    for (const char* network : networks) {
        Network net = Network::parse(network);
        Rng rng(0xC0A9 + net.numDims());
        std::vector<BwConfig> points;
        for (int i = 0; i < 3; ++i) {
            BwConfig bw = rng.simplexPoint(net.numDims(), 700.0);
            for (auto& b : bw)
                b = std::max(b, 1.0);
            points.push_back(bw);
        }
        for (const char* name : workloads) {
            Workload w = zooWorkloadByName(name, net.npus());
            for (TrainingLoop loop :
                 {TrainingLoop::NoOverlap, TrainingLoop::TpDpOverlap}) {
                EstimatorOptions opt;
                opt.loop = loop;
                TrainingEstimator est(net, opt);
                CompiledWorkload cw = est.compile(w);
                std::string label =
                    std::string(network) + "/" + name + "/" +
                    (loop == TrainingLoop::NoOverlap ? "NoOverlap"
                                                     : "TpDpOverlap");
                SCOPED_TRACE(label);
                std::vector<Seconds> batch = cw.estimateBatch(points);
                std::string actual;
                for (std::size_t i = 0; i < points.size(); ++i)
                    actual += hex(cw.estimate(points[i])) + ", ";
                if (cell == expected.size()) {
                    ADD_FAILURE() << "missing corpus row {\"" << label
                                  << "\", {" << actual << "}},";
                    continue;
                }
                const CompiledCorpusExpected& e = expected[cell++];
                EXPECT_EQ(label, e.name);
                for (std::size_t i = 0; i < points.size(); ++i) {
                    EXPECT_EQ(cw.estimate(points[i]), e.values[i])
                        << "point " << i << ": " << actual;
                    EXPECT_EQ(batch[i], e.values[i])
                        << "point " << i << " (batch): "
                        << hex(batch[i]);
                }
            }
        }
    }
    EXPECT_EQ(cell, expected.size());
}

} // namespace
} // namespace libra
