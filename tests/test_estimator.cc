/**
 * @file
 * Tests for the end-to-end training-time estimator.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/units.hh"
#include "core/estimator.hh"
#include "core/timing_backend.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

/** Tiny hand-built workload: one layer, known numbers. */
Workload
toyWorkload(long tp, long dp)
{
    Workload w;
    w.name = "toy";
    w.strategy = {tp, dp};
    Layer l;
    l.name = "l0";
    l.fwdCompute = 1.0;
    l.igCompute = 2.0;
    l.wgCompute = 3.0;
    if (tp > 1) {
        l.fwdComm.push_back(
            {CollectiveType::AllReduce, CommScope::Tp, 1e9});
        l.igComm.push_back(
            {CollectiveType::AllReduce, CommScope::Tp, 1e9});
    }
    if (dp > 1) {
        l.wgComm.push_back(
            {CollectiveType::AllReduce, CommScope::Dp, 1e9});
    }
    w.layers = {l};
    return w;
}

TEST(Estimator, NoOverlapSumsEverything)
{
    Network net = Network::parse("RI(4)_RI(4)");
    TrainingEstimator est(net);
    Workload w = toyWorkload(4, 4);
    BwConfig bw{10.0, 10.0};

    // TP AR on dim 1: 2*1e9*(3/4)/10e9 = 0.15 s each.
    // DP AR on dim 2 (stride 4): 2*1e9*(3/4)/10e9 = 0.15 s.
    Seconds want = (1.0 + 0.15) + (2.0 + 0.15) + (3.0 + 0.15);
    EXPECT_NEAR(est.estimate(w, bw), want, 1e-9);
}

TEST(Estimator, TpDpOverlapTakesMax)
{
    Network net = Network::parse("RI(4)_RI(4)");
    EstimatorOptions opt;
    opt.loop = TrainingLoop::TpDpOverlap;
    TrainingEstimator est(net, opt);
    Workload w = toyWorkload(4, 4);
    BwConfig bw{10.0, 10.0};

    // Backward tail = max(TP_comm, DP_comp + DP_comm)
    //               = max(0.15, 3.0 + 0.15) = 3.15.
    Seconds want = (1.0 + 0.15) + 2.0 + 3.15;
    EXPECT_NEAR(est.estimate(w, bw), want, 1e-9);
}

TEST(Estimator, OverlapNeverSlower)
{
    Network net = topo::fourD4K();
    TrainingEstimator noOverlap(net);
    EstimatorOptions opt;
    opt.loop = TrainingLoop::TpDpOverlap;
    TrainingEstimator overlap(net, opt);

    BwConfig bw = net.equalBw(400.0);
    for (const auto& w : wl::tableTwo(net.npus())) {
        EXPECT_LE(overlap.estimate(w, bw),
                  noOverlap.estimate(w, bw) + 1e-12)
            << w.name;
    }
}

TEST(Estimator, MoreBandwidthNeverSlower)
{
    Network net = topo::threeD4K();
    TrainingEstimator est(net);
    Workload w = wl::msft1T(net.npus());
    Seconds slow = est.estimate(w, net.equalBw(100.0));
    Seconds fast = est.estimate(w, net.equalBw(1000.0));
    EXPECT_LT(fast, slow);
}

TEST(Estimator, WorkloadNetworkMismatchThrows)
{
    Network net = topo::fourD4K();
    TrainingEstimator est(net);
    Workload w = wl::gpt3(1024); // 1024 != 4096 NPUs.
    EXPECT_THROW(est.estimate(w, net.equalBw(100.0)), FatalError);
    EXPECT_THROW(est.detail(w, net.equalBw(100.0)), FatalError);
}

TEST(Estimator, DetailMatchesEstimate)
{
    Network net = topo::fourD4K();
    for (auto loop :
         {TrainingLoop::NoOverlap, TrainingLoop::TpDpOverlap}) {
        EstimatorOptions opt;
        opt.loop = loop;
        TrainingEstimator est(net, opt);
        Workload w = wl::msft1T(net.npus());
        BwConfig bw = net.equalBw(300.0);
        EstimateDetail d = est.detail(w, bw);
        EXPECT_EQ(d.total, est.estimate(w, bw));
        EXPECT_GT(d.computeTotal, 0.0);
        EXPECT_GT(d.exposedComm, 0.0);
    }
}

TEST(Estimator, DetailBreakdownConsistent)
{
    Network net = topo::fourD4K();
    TrainingEstimator est(net);
    Workload w = wl::gpt3(net.npus());
    BwConfig bw = net.equalBw(300.0);
    EstimateDetail d = est.detail(w, bw);

    EXPECT_NEAR(d.computeTotal, d.fwdCompute + d.igCompute + d.wgCompute,
                1e-12);
    // No overlap: total = compute + all comm.
    EXPECT_NEAR(d.total,
                d.computeTotal + d.fwdComm + d.igComm + d.wgComm, 1e-9);
    // Utilization is a fraction.
    EXPECT_GT(d.avgBwUtilization, 0.0);
    EXPECT_LE(d.avgBwUtilization, 1.0 + 1e-9);
}

TEST(Estimator, UtilizationHitsOneOnBalancedSingleCollective)
{
    // One collective over one dim: the only dim is always busy.
    Network net = Network::parse("RI(4)");
    TrainingEstimator est(net);
    Workload w;
    w.strategy = {1, 4};
    Layer l;
    l.wgComm.push_back({CollectiveType::AllReduce, CommScope::Dp, 1e9});
    w.layers = {l};
    EstimateDetail d = est.detail(w, {10.0});
    EXPECT_NEAR(d.avgBwUtilization, 1.0, 1e-9);
}

TEST(Estimator, EqualBwUnderutilizesMultiDim)
{
    // The Fig. 10 premise: EqualBW on a 4D network leaves most of the
    // fabric idle because dim 1 bottlenecks.
    Network net = topo::fourD4K();
    TrainingEstimator est(net);
    Workload w = wl::msft1T(net.npus());
    EstimateDetail d = est.detail(w, net.equalBw(300.0));
    EXPECT_LT(d.avgBwUtilization, 0.8);
}

/**
 * Synthetic workload of @p n layers in which every collective differs
 * from every other (each size is a distinct value) and every scope
 * appears, so a per-call timing table never hits.
 */
Workload
allDistinctWorkload(std::size_t n)
{
    Workload w;
    w.name = "all-distinct";
    w.strategy = {16, 4, 64};
    std::vector<Layer> layers;
    for (std::size_t i = 0; i < n; ++i) {
        double base = 1e6 + 8.0 * static_cast<double>(i);
        Layer l;
        l.fwdCompute = 1e-3 + 1e-7 * static_cast<double>(i % 7);
        l.igCompute = 2e-3;
        l.wgCompute = 1e-4 * static_cast<double>(i % 5);
        l.fwdComm = {{CollectiveType::AllReduce, CommScope::Tp, base},
                     {CollectiveType::AllToAll, CommScope::All, base + 1}};
        l.igComm = {{CollectiveType::ReduceScatter, CommScope::Tp, base + 2},
                    {CollectiveType::AllGather, CommScope::Pp, base + 3}};
        l.wgComm = {{CollectiveType::AllReduce, CommScope::Dp, base + 4}};
        layers.push_back(std::move(l));
    }
    w.layers = std::move(layers);
    return w;
}

/**
 * estimate() and detail() under the analytical model may time each
 * distinct collective once per call and reuse it. That must be
 * invisible: every field equals, bit for bit, the same sums over one
 * multiRailTime call per op in workload order.
 */
TEST(Estimator, AnalyticalEstimatesEqualPerOpSums)
{
    Network net = topo::fourD4K();
    const BwConfig bw{210.0, 95.0, 60.0, 35.0};
    std::vector<Workload> corpus = wl::tableTwo(net.npus());
    corpus.push_back(allDistinctWorkload(2100));
    for (const Workload& w : corpus) {
        for (TrainingLoop loop :
             {TrainingLoop::NoOverlap, TrainingLoop::TpDpOverlap}) {
            SCOPED_TRACE(w.name + (loop == TrainingLoop::NoOverlap
                                       ? " NoOverlap"
                                       : " TpDpOverlap"));
            EstimatorOptions opt;
            opt.loop = loop;
            TrainingEstimator est(net, opt);

            EstimateDetail want;
            want.dimBusy.assign(net.numDims(), 0.0);
            want.dimTraffic.assign(net.numDims(), 0.0);
            auto phase = [&](const std::vector<CommOp>& ops) {
                Seconds sum = 0.0;
                for (const auto& op : ops) {
                    auto spans = est.spansFor(w.strategy, op.scope);
                    if (spans.empty())
                        continue;
                    CollectiveTiming t =
                        multiRailTime(op.type, op.size, spans, bw);
                    sum += t.time;
                    for (std::size_t s = 0; s < spans.size(); ++s) {
                        want.dimBusy[spans[s].dim] += t.timePerDim[s];
                        want.dimTraffic[spans[s].dim] +=
                            t.trafficPerDim[s];
                    }
                }
                return sum;
            };
            for (const auto& layer : w.layers) {
                Seconds f = phase(layer.fwdComm);
                Seconds i = phase(layer.igComm);
                Seconds g = phase(layer.wgComm);
                want.total += layer.fwdCompute + f;
                Seconds exposed;
                if (loop == TrainingLoop::NoOverlap) {
                    want.total += layer.igCompute + i + layer.wgCompute + g;
                    exposed = f + i + g;
                } else {
                    Seconds tail = std::max(i, layer.wgCompute + g);
                    want.total += layer.igCompute + tail;
                    exposed = f + tail - std::min(tail, layer.wgCompute);
                }
                want.fwdCompute += layer.fwdCompute;
                want.fwdComm += f;
                want.igCompute += layer.igCompute;
                want.igComm += i;
                want.wgCompute += layer.wgCompute;
                want.wgComm += g;
                want.exposedComm += exposed;
            }
            want.computeTotal =
                want.fwdCompute + want.igCompute + want.wgCompute;
            double sumBw = 0.0;
            for (double b : bw)
                sumBw += b;
            Bytes moved = 0.0;
            for (Bytes t : want.dimTraffic)
                moved += t;
            Seconds comm = want.fwdComm + want.igComm + want.wgComm;
            ASSERT_GT(comm, 0.0);
            want.avgBwUtilization = moved / (sumBw * kGiga * comm);

            EXPECT_EQ(est.estimate(w, bw), want.total);
            EstimateDetail d = est.detail(w, bw);
            EXPECT_EQ(d.total, want.total);
            EXPECT_EQ(d.computeTotal, want.computeTotal);
            EXPECT_EQ(d.exposedComm, want.exposedComm);
            EXPECT_EQ(d.fwdCompute, want.fwdCompute);
            EXPECT_EQ(d.fwdComm, want.fwdComm);
            EXPECT_EQ(d.igCompute, want.igCompute);
            EXPECT_EQ(d.igComm, want.igComm);
            EXPECT_EQ(d.wgCompute, want.wgCompute);
            EXPECT_EQ(d.wgComm, want.wgComm);
            EXPECT_EQ(d.dimBusy, want.dimBusy);
            EXPECT_EQ(d.dimTraffic, want.dimTraffic);
            EXPECT_EQ(d.avgBwUtilization, want.avgBwUtilization);
        }
    }
}

TEST(Estimator, SpansForScopes)
{
    Network net = topo::fourD4K();
    TrainingEstimator est(net);
    Parallelization hp{128, 32};
    EXPECT_EQ(est.spansFor(hp, CommScope::Tp).size(), 3u);
    EXPECT_EQ(est.spansFor(hp, CommScope::Dp).size(), 1u);
    EXPECT_EQ(est.spansFor(hp, CommScope::All).size(), 4u);
}

TEST(Estimator, CommTimeMatchesMultiRail)
{
    // A one-layer, one-op workload with no compute: its iteration
    // time is that collective's time.
    Network net = topo::fourD4K();
    TrainingEstimator est(net);
    BwConfig bw = net.equalBw(400.0);
    CommOp op{CollectiveType::AllReduce, CommScope::Tp, 5e9};
    Workload w;
    w.strategy = {128, 32};
    Layer l;
    l.fwdComm.push_back(op);
    w.layers = {l};
    auto spans = est.spansFor(w.strategy, CommScope::Tp);
    EXPECT_NEAR(est.estimate(w, bw),
                multiRailTime(op.type, op.size, spans, bw).time, 1e-15);
}

/** A collective-timing function, as a test backend wraps it. */
using TimingFn = std::function<CollectiveTiming(
    CollectiveType, Bytes, const std::vector<DimSpan>&, const BwConfig&,
    bool)>;

/** A test-only TimingBackend that forwards to a plain function. */
class FnTimingBackend final : public TimingBackend
{
  public:
    FnTimingBackend(std::string name, TimingFn fn)
        : name_(std::move(name)), fn_(std::move(fn))
    {}

    std::string name() const override { return name_; }
    std::string description() const override { return "test backend"; }

    CollectiveTiming
    timing(CollectiveType type, Bytes size,
           const std::vector<DimSpan>& spans, const BwConfig& bw,
           bool in_network) const override
    {
        return fn_(type, size, spans, bw, in_network);
    }

  private:
    std::string name_;
    TimingFn fn_;
};

/**
 * Estimator options selecting @p fn as a backend registered in the
 * global registry under the test-only @p name (once per process, so
 * repeated test runs reuse the first registration).
 */
EstimatorOptions
withTestBackend(const std::string& name, TimingFn fn)
{
    TimingBackendRegistry& registry = TimingBackendRegistry::global();
    if (!registry.find(name))
        registry.add(std::make_unique<FnTimingBackend>(name, std::move(fn)));
    EstimatorOptions opt;
    opt.timingBackend = name;
    return opt;
}

TEST(Estimator, RegisteredTestBackendIsUsed)
{
    Network net = Network::parse("RI(4)");
    EstimatorOptions opt = withTestBackend(
        "test-constant-42",
        [](CollectiveType, Bytes, const std::vector<DimSpan>& spans,
           const BwConfig&, bool) {
            CollectiveTiming t;
            t.time = 42.0;
            t.trafficPerDim.assign(spans.size(), 0.0);
            t.timePerDim.assign(spans.size(), 42.0);
            return t;
        });
    TrainingEstimator est(net, opt);
    Workload w;
    w.strategy = {1, 4};
    Layer l;
    l.wgComm.push_back({CollectiveType::AllReduce, CommScope::Dp, 1e9});
    w.layers = {l};
    EXPECT_NEAR(est.estimate(w, {10.0}), 42.0, 1e-12);
}

/**
 * The pluggable-timing seam checks whatever a registered backend
 * returns: collective timings must be nonnegative and finite with
 * span-aligned vectors, or estimation fails loudly instead of
 * corrupting objectives downstream.
 */
TEST(Estimator, InvalidBackendTimingIsRejectedAtTheSeam)
{
    Network net = Network::parse("RI(4)");
    Workload w;
    w.strategy = {1, 4};
    Layer l;
    l.wgComm.push_back({CollectiveType::AllReduce, CommScope::Dp, 1e9});
    w.layers = {l};

    auto timingWith = [](Seconds time, Seconds per_dim) {
        return [time, per_dim](CollectiveType, Bytes,
                               const std::vector<DimSpan>& spans,
                               const BwConfig&, bool) {
            CollectiveTiming t;
            t.time = time;
            t.trafficPerDim.assign(spans.size(), 1.0);
            t.timePerDim.assign(spans.size(), per_dim);
            return t;
        };
    };

    // Negative and non-finite total times.
    const std::pair<const char*, Seconds> badTimes[] = {
        {"test-negative-time", -1.0},
        {"test-nan-time", std::nan("")},
        {"test-inf-time", std::numeric_limits<Seconds>::infinity()}};
    for (const auto& [name, bad] : badTimes) {
        TrainingEstimator est(net, withTestBackend(name,
                                                   timingWith(bad, 0.5)));
        EXPECT_THROW(est.estimate(w, {10.0}), FatalError) << name;
    }

    // Invalid per-dimension time with a valid total.
    {
        TrainingEstimator est(
            net, withTestBackend("test-negative-dim-time",
                                 timingWith(1.0, -0.5)));
        EXPECT_THROW(est.detail(w, {10.0}), FatalError);
    }

    // Vectors not aligned with the span list.
    {
        TrainingEstimator est(
            net, withTestBackend(
                     "test-unaligned-dims",
                     [](CollectiveType, Bytes, const std::vector<DimSpan>&,
                        const BwConfig&, bool) {
                         CollectiveTiming t;
                         t.time = 1.0; // Valid time, empty per-dim vectors.
                         return t;
                     }));
        EXPECT_THROW(est.estimate(w, {10.0}), FatalError);
    }

    // A well-formed timing still passes.
    {
        TrainingEstimator est(
            net, withTestBackend("test-well-formed", timingWith(1.0, 0.5)));
        EXPECT_NEAR(est.estimate(w, {10.0}), 1.0, 1e-12);
    }
}

TEST(Estimator, InNetworkSpeedsUpAllReduce)
{
    // ResNet-50 syncs gradients with true All-Reduces, the collective
    // the switch-offload model accelerates (ZeRO-2 RS+AG is untouched).
    Network net = topo::threeD512();
    EstimatorOptions offload;
    offload.inNetworkCollectives = true;
    TrainingEstimator plain(net);
    TrainingEstimator inNet(net, offload);
    Workload w = wl::resnet50(net.npus());
    BwConfig bw = net.equalBw(300.0);
    EXPECT_LT(inNet.estimate(w, bw), plain.estimate(w, bw));
}

TEST(Estimator, InNetworkLeavesZeroTwoWorkloadsUnchanged)
{
    Network net = topo::threeD512();
    EstimatorOptions offload;
    offload.inNetworkCollectives = true;
    TrainingEstimator plain(net);
    TrainingEstimator inNet(net, offload);
    Workload w = wl::turingNlg(net.npus()); // RS+AG gradient sync.
    BwConfig bw = net.equalBw(300.0);
    EXPECT_DOUBLE_EQ(inNet.estimate(w, bw), plain.estimate(w, bw));
}

} // namespace
} // namespace libra
