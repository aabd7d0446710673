/**
 * @file
 * Bit-identity contracts of the batched objective-evaluation path.
 *
 * The SIMD-batched candidate-major path (estimateBatch, surfaced to
 * solvers through the CompiledObjective facet) promises results
 * *bit-identical* to the scalar SoA estimate() — not merely close.
 * These tests enforce that promise with std::bit_cast comparisons
 * across dimension counts chosen to cover full SIMD lanes, remainder
 * lanes, and the scalar tail (1, 2, 8, 15, 16, 17), both training
 * loops, and batch sizes leaving every padded remainder of the AVX2
 * and AVX-512 kernels; the same grid covers the boundaries of the
 * runs of identical layers the compiled form evaluates once. They
 * also check that projected subgradient descent, whose gradients go
 * through the batch, retraces the per-call search exactly, and that
 * the objective seam rejects a point of the wrong rank. The bit-identity
 * grid runs through every kernel estimateKernels() lists, so each
 * compiled-in kernel the CPU runs is checked in this one binary, under
 * every sanitizer build.
 */

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/estimator.hh"
#include "core/objective.hh"
#include "core/timing_backend.hh"
#include "cost/cost_model.hh"
#include "solver/batch_eval.hh"
#include "solver/constraint_set.hh"
#include "solver/qp.hh"
#include "solver/subgradient.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** Chain of @p dims size-2 dimensions, alternating unit topologies. */
Network
makeChainNetwork(std::size_t dims)
{
    std::string text;
    for (std::size_t i = 0; i < dims; ++i) {
        if (i)
            text += "_";
        text += (i % 2 == 0) ? "RI(2)" : "FC(2)";
    }
    return Network::parse(text);
}

/**
 * Two-layer workload touching every comm scope the estimator
 * distinguishes (Tp, Dp, All) with all the common collective types,
 * so the compiled ops include both single-span and multi-span rows.
 */
Workload
makeSyntheticWorkload(long npus)
{
    Workload w;
    w.name = "kernel-fuzz";
    w.strategy = {2, npus / 2};

    Layer a;
    a.name = "attn";
    a.fwdCompute = 1.1e-3;
    a.igCompute = 2.3e-3;
    a.wgCompute = 1.7e-3;
    a.fwdComm.push_back({CollectiveType::AllGather, CommScope::Tp, 3e8});
    a.igComm.push_back(
        {CollectiveType::ReduceScatter, CommScope::Tp, 2e8});
    a.wgComm.push_back({CollectiveType::AllReduce, CommScope::Dp, 5e8});

    Layer b;
    b.name = "embed";
    b.fwdCompute = 0.9e-3;
    b.igCompute = 1.2e-3;
    b.wgCompute = 0.6e-3;
    b.fwdComm.push_back({CollectiveType::AllToAll, CommScope::All, 1e8});
    b.wgComm.push_back({CollectiveType::AllReduce, CommScope::Dp, 4e8});

    w.layers = {a, b};
    return w;
}

/**
 * Layers (a, a, b, a, a, a) of the synthetic workload: three runs,
 * where the two runs of `a` must not merge across `b`.
 */
Workload
makeRunsWorkload(long npus)
{
    Workload w = makeSyntheticWorkload(npus);
    const Layer a = w.layers[0];
    const Layer b = w.layers[1];
    w.name = "runs";
    w.layers = {a, a, b, a, a, a};
    return w;
}

/** One layer of the synthetic workload: a single run of length 1. */
Workload
makeOneLayerWorkload(long npus)
{
    Workload w = makeSyntheticWorkload(npus);
    w.name = "one-layer";
    w.layers.resize(1);
    return w;
}

/**
 * Three identical layers of 40 whole-network collectives each: a run
 * with more multi-span ops than the evaluators keep inline (32).
 */
Workload
makeWideLayerWorkload(long npus)
{
    Workload w = makeSyntheticWorkload(npus);
    Layer wide = w.layers[0];
    wide.name = "wide";
    for (int k = 0; k < 40; ++k) {
        CollectiveType type = k % 2 ? CollectiveType::AllToAll
                                    : CollectiveType::AllReduce;
        std::vector<CommOp>& phase =
            k % 3 == 0 ? wide.fwdComm
                       : (k % 3 == 1 ? wide.igComm : wide.wgComm);
        phase.push_back({type, CommScope::All, 1e7 * (k + 1)});
    }
    w.name = "wide";
    w.layers = {wide, wide, wide};
    return w;
}

/** Random feasible-ish bandwidth point (positive, bounded total). */
BwConfig
randomPoint(Rng& rng, std::size_t dims)
{
    BwConfig bw = rng.simplexPoint(dims, 600.0);
    for (auto& b : bw)
        b = std::max(b, 1.0);
    return bw;
}

struct KernelCase
{
    std::size_t dims;
    TrainingLoop loop;
};

std::string
kernelCaseName(const ::testing::TestParamInfo<KernelCase>& info)
{
    return std::to_string(info.param.dims) + "d_" +
           (info.param.loop == TrainingLoop::NoOverlap ? "NoOverlap"
                                                       : "TpDpOverlap");
}

class ObjectiveKernels : public ::testing::TestWithParam<KernelCase>
{
  protected:
    void
    SetUp() override
    {
        const KernelCase& param = GetParam();
        net_ = std::make_unique<Network>(makeChainNetwork(param.dims));
        EstimatorOptions opt;
        opt.loop = param.loop;
        est_ = std::make_unique<TrainingEstimator>(*net_, opt);
        w_ = makeSyntheticWorkload(net_->npus());
        cw_ = std::make_unique<CompiledWorkload>(est_->compile(w_));
    }

    std::unique_ptr<Network> net_;
    std::unique_ptr<TrainingEstimator> est_;
    Workload w_;
    std::unique_ptr<CompiledWorkload> cw_;
};

/**
 * Every kernel this build and CPU can run — not just the one
 * estimateBatch picks — must agree with per-candidate estimate() to
 * the last bit, at batch sizes exercising a lone candidate,
 * exactly-full SIMD blocks, a lone scalar leftover, and every padded
 * remainder from 2 to 7 of the width-4 (AVX2) and width-8 (AVX-512)
 * kernels. estimateBatch must match them too.
 */
TEST_P(ObjectiveKernels, BatchMatchesScalarBitExact)
{
    std::span<const EstimateKernel> kernels = estimateKernels();
    ASSERT_FALSE(kernels.empty());
    EXPECT_STREQ(kernels.back().name, "scalar");
    for (const EstimateKernel& kernel : kernels) {
        SCOPED_TRACE(kernel.name);
        Rng rng(0x5EED + GetParam().dims);
        for (std::size_t n :
             {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 33}) {
            std::vector<BwConfig> pool;
            for (std::size_t i = 0; i < n; ++i)
                pool.push_back(randomPoint(rng, net_->numDims()));
            std::vector<Seconds> out(n, -1.0);
            kernel.run(*cw_, pool.data(), n, out.data());
            std::vector<Seconds> viaBatch(n, -1.0);
            cw_->estimateBatch(pool.data(), n, viaBatch.data());
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(bits(out[i]), bits(cw_->estimate(pool[i])))
                    << "candidate " << i << " of " << n;
                EXPECT_EQ(bits(viaBatch[i]), bits(out[i]))
                    << "candidate " << i << " of " << n;
            }
        }
    }
}

/**
 * Runs of identical layers are evaluated once and their adds
 * replayed. At run boundaries — non-adjacent repeats, a lone layer,
 * a run whose op times spill past the inline scratch — the batch must
 * still match the scalar path to the bit, and both must match the
 * uncompiled per-layer walk up to its summation order.
 */
TEST_P(ObjectiveKernels, RunBoundariesBatchMatchesScalarBitExact)
{
    for (const EstimateKernel& kernel : estimateKernels()) {
        SCOPED_TRACE(kernel.name);
        Rng rng(0x12A5 + GetParam().dims);
        for (const Workload& w : {makeRunsWorkload(net_->npus()),
                                  makeOneLayerWorkload(net_->npus()),
                                  makeWideLayerWorkload(net_->npus())}) {
            SCOPED_TRACE(w.name);
            CompiledWorkload cw = est_->compile(w);
            std::vector<BwConfig> pool;
            for (int i = 0; i < 11; ++i)
                pool.push_back(randomPoint(rng, net_->numDims()));
            std::vector<Seconds> out(pool.size(), -1.0);
            kernel.run(cw, pool.data(), pool.size(), out.data());
            for (std::size_t i = 0; i < pool.size(); ++i) {
                Seconds scalar = cw.estimate(pool[i]);
                EXPECT_EQ(bits(out[i]), bits(scalar)) << "candidate " << i;
                Seconds direct = est_->estimate(w, pool[i]);
                EXPECT_NEAR(scalar, direct, 1e-12 * direct)
                    << "candidate " << i;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    LaneGrid, ObjectiveKernels,
    ::testing::Values(KernelCase{1, TrainingLoop::NoOverlap},
                      KernelCase{1, TrainingLoop::TpDpOverlap},
                      KernelCase{2, TrainingLoop::NoOverlap},
                      KernelCase{2, TrainingLoop::TpDpOverlap},
                      KernelCase{8, TrainingLoop::NoOverlap},
                      KernelCase{8, TrainingLoop::TpDpOverlap},
                      KernelCase{15, TrainingLoop::NoOverlap},
                      KernelCase{15, TrainingLoop::TpDpOverlap},
                      KernelCase{16, TrainingLoop::NoOverlap},
                      KernelCase{16, TrainingLoop::TpDpOverlap},
                      KernelCase{17, TrainingLoop::NoOverlap},
                      KernelCase{17, TrainingLoop::TpDpOverlap}),
    kernelCaseName);

/**
 * makeObjective over the analytical timing model must hand back a
 * callable whose BatchEvaluable facet is recoverable; a custom
 * timing model must fall back to a plain lambda (no facet).
 */
// GCC 12 falsely flags std::function::target()'s _Any_data as
// maybe-uninitialized when the empty-target branch is fully inlined
// (GCC PR105562); the library code is fine.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
TEST(ObjectiveFacade, RecoveredOnlyForAnalyticalTiming)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets = {
        {wl::resnet50(net.npus()), 1.0}};

    TrainingEstimator analytical(net);
    ScalarObjective fast = makeObjective(OptimizationObjective::PerfOpt,
                                         analytical, cost, targets);
    EXPECT_NE(batchFacet(fast), nullptr);

    EstimatorOptions opt;
    opt.timingBackend = kChunkSimTimingBackendName;
    TrainingEstimator sim(net, opt);
    ScalarObjective plain = makeObjective(OptimizationObjective::PerfOpt,
                                          sim, cost, targets);
    EXPECT_EQ(batchFacet(plain), nullptr);

    ScalarObjective lambda = [](const Vec& x) { return x[0]; };
    EXPECT_EQ(batchFacet(lambda), nullptr);
}
#pragma GCC diagnostic pop

/**
 * A point whose rank differs from the compiled network's is an
 * invariant violation: both entry points of the compiled objective
 * panic instead of reading past the point.
 */
TEST(ObjectiveFacadeDeathTest, WrongRankPointPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    TrainingEstimator est(net);
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets = {
        {wl::resnet50(net.npus()), 1.0}};
    CompiledObjective objective(OptimizationObjective::PerfOpt, est, cost,
                                targets);
    const std::vector<Vec> points = {Vec(3, 100.0), Vec{}, Vec(3, 100.0)};
    double out[3];
    EXPECT_DEATH(objective.evaluateOne(Vec{}),
                 "panic: point rank 0 != compiled rank 3");
    EXPECT_DEATH(objective.evaluateOne(Vec(4, 100.0)),
                 "panic: point rank 4 != compiled rank 3");
    EXPECT_DEATH(objective.evaluateBatch(points.data(), points.size(), out),
                 "panic: point rank 0 != compiled rank 3");
}

class ObjectiveFacets
    : public ::testing::TestWithParam<OptimizationObjective>
{};

/**
 * The batched facet must reproduce the plain call operator exactly
 * over a mixed-weight two-workload ensemble, under both objectives
 * (PerfPerCostOpt adds the cost multiply after the sum).
 */
TEST_P(ObjectiveFacets, BatchMatchesCallOperator)
{
    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    TrainingEstimator est(net);
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets = {
        {wl::resnet50(net.npus()), 0.75},
        {wl::gpt3(net.npus()), 0.25}};

    ScalarObjective f = makeObjective(GetParam(), est, cost, targets);
    const BatchEvaluable* batch = batchFacet(f);
    ASSERT_NE(batch, nullptr);

    Rng rng(0xFACE7);
    std::vector<Vec> pool;
    for (int i = 0; i < 33; ++i)
        pool.push_back(randomPoint(rng, net.numDims()));

    std::vector<double> out(pool.size(), -1.0);
    batch->evaluateBatch(pool.data(), pool.size(), out.data());
    for (std::size_t i = 0; i < pool.size(); ++i) {
        EXPECT_EQ(bits(out[i]), bits(f(pool[i]))) << "candidate " << i;
        EXPECT_EQ(bits(out[i]), bits(batch->evaluateOne(pool[i])));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Objectives, ObjectiveFacets,
    ::testing::Values(OptimizationObjective::PerfOpt,
                      OptimizationObjective::PerfPerCostOpt),
    [](const ::testing::TestParamInfo<OptimizationObjective>& info) {
        return objectiveName(info.param);
    });

struct SubgradientCase
{
    const char* network;
    TrainingLoop loop;
    OptimizationObjective objective;
};

std::string
subgradientCaseName(const ::testing::TestParamInfo<SubgradientCase>& info)
{
    return std::to_string(Network::parse(info.param.network).numDims()) +
           "d_" +
           (info.param.loop == TrainingLoop::NoOverlap ? "NoOverlap_"
                                                       : "TpDpOverlap_") +
           objectiveName(info.param.objective);
}

class SubgradientBatch : public ::testing::TestWithParam<SubgradientCase>
{};

/**
 * projectedSubgradient scores each iterate's 2n gradient probes in one
 * evaluateBatch call when the objective carries the batched facet. A
 * plain lambda around the same objective hides the facet and forces
 * per-probe calls; both runs must take the same path to the same bits.
 */
// Same GCC 12 std::function::target() false positive as above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
TEST_P(SubgradientBatch, BatchedGradientsRetraceThePerCallSearch)
{
    const SubgradientCase& param = GetParam();
    Network net = Network::parse(param.network);
    EstimatorOptions opt;
    opt.loop = param.loop;
    TrainingEstimator est(net, opt);
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets = {
        {wl::resnet50(net.npus()), 0.75},
        {wl::gpt3(net.npus()), 0.25}};

    ScalarObjective batched =
        makeObjective(param.objective, est, cost, targets);
    ASSERT_NE(batchFacet(batched), nullptr);
    ScalarObjective plain = [&batched](const Vec& x) {
        return batched(x);
    };
    ASSERT_EQ(batchFacet(plain), nullptr);

    ConstraintSet cs(net.numDims());
    cs.addTotalBw(400.0, Relation::Eq);
    cs.addLowerBounds(1.0);
    Rng rng(0x5B6D + net.numDims());
    const Vec x0 = projectOntoConstraints(
        cs, rng.simplexPoint(net.numDims(), 400.0));

    const SearchResult a = projectedSubgradient(batched, cs, x0);
    const SearchResult b = projectedSubgradient(plain, cs, x0);
    EXPECT_GT(a.iterations, 1);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(bits(a.value), bits(b.value));
    ASSERT_EQ(a.x.size(), b.x.size());
    for (std::size_t i = 0; i < a.x.size(); ++i)
        EXPECT_EQ(bits(a.x[i]), bits(b.x[i])) << "dim " << i;
}
#pragma GCC diagnostic pop

INSTANTIATE_TEST_SUITE_P(
    NetworksLoopsObjectives, SubgradientBatch,
    ::testing::ValuesIn([] {
        std::vector<SubgradientCase> cases;
        for (const char* network :
             {"RI(4)_FC(4)_SW(4)", "RI(4)_FC(2)_RI(4)_SW(4)"})
            for (TrainingLoop loop :
                 {TrainingLoop::NoOverlap, TrainingLoop::TpDpOverlap})
                for (OptimizationObjective objective :
                     {OptimizationObjective::PerfOpt,
                      OptimizationObjective::PerfPerCostOpt})
                    cases.push_back({network, loop, objective});
        return cases;
    }()),
    subgradientCaseName);

} // namespace
} // namespace libra
