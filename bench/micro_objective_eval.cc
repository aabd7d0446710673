/**
 * @file
 * Compiled-objective evaluation throughput: the function every solver
 * iteration bottoms out in. Measures evaluations/sec of the
 * uncompiled direct estimator, the scalar SoA fast path, the
 * SIMD-batched candidate-major kernel, and one subgradient gradient
 * (2n central-difference probes through the objective's evaluateBatch
 * against 2n scalar estimate() calls), and emits machine-readable
 * BENCH_objective.json for CI tracking.
 */

#include <algorithm>
#include <chrono>

#include "bench_util.hh"
#include "common/random.hh"
#include "core/estimator.hh"
#include "core/objective.hh"
#include "cost/cost_model.hh"
#include "solver/subgradient.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

/** Deterministic pool of bandwidth points to cycle through. */
std::vector<BwConfig>
makeBwPool(std::size_t dims, std::size_t count)
{
    Rng rng(0xBE7C4);
    std::vector<BwConfig> pool;
    for (std::size_t i = 0; i < count; ++i) {
        BwConfig bw = rng.simplexPoint(dims, 800.0);
        for (auto& b : bw)
            b = std::max(b, 1.0);
        pool.push_back(std::move(bw));
    }
    return pool;
}

/**
 * Evaluations/sec of @p call (which performs @p evalsPerCall
 * evaluations), self-timed to ~targetSeconds. The measurement batch is
 * calibrated from the warm-up round: a fixed batch would make slow
 * paths overshoot the budget by a whole oversized final batch, so each
 * batch is sized to ~2% of the budget instead.
 */
template <typename Call>
double
measure(const Call& call, std::size_t evalsPerCall,
        double targetSeconds, volatile double* sink)
{
    using Clock = std::chrono::steady_clock;

    const std::size_t warmCalls =
        std::max<std::size_t>(1, 1000 / evalsPerCall);
    double acc = 0.0;
    auto warmBegin = Clock::now();
    for (std::size_t i = 0; i < warmCalls; ++i)
        acc += call(i);
    std::chrono::duration<double> warm = Clock::now() - warmBegin;

    const double perCall =
        warm.count() / static_cast<double>(warmCalls);
    std::size_t batch = warmCalls;
    if (perCall > 0.0) {
        batch = static_cast<std::size_t>(
            std::clamp(targetSeconds * 0.02 / perCall, 1.0, 1e7));
    }

    std::size_t calls = 0;
    auto begin = Clock::now();
    for (;;) {
        for (std::size_t i = 0; i < batch; ++i)
            acc += call(calls + i);
        calls += batch;
        std::chrono::duration<double> elapsed = Clock::now() - begin;
        if (elapsed.count() >= targetSeconds) {
            *sink = acc;
            return static_cast<double>(calls * evalsPerCall) /
                   elapsed.count();
        }
    }
}

void
run()
{
    bench::banner("micro", "compiled objective evaluation throughput "
                           "(direct vs SoA vs SIMD vs gradient batch)");

    Network net = topo::threeD512();
    Workload w = wl::msft1T(net.npus());
    TrainingEstimator est(net);
    CompiledWorkload cw = est.compile(w);
    const std::size_t dims = net.numDims();
    std::vector<BwConfig> pool = makeBwPool(dims, 64);

    volatile double sink = 0.0;
    const double budget = 1.0; // Seconds per variant.
    double direct = measure(
        [&](std::size_t i) {
            return est.estimate(w, pool[i % pool.size()]);
        },
        1, budget, &sink);
    double soa = measure(
        [&](std::size_t i) {
            return cw.estimate(pool[i % pool.size()]);
        },
        1, budget, &sink);

    // Candidate-major SIMD batches over the whole pool per call.
    std::vector<Seconds> out(pool.size(), 0.0);
    double batched = measure(
        [&](std::size_t i) {
            cw.estimateBatch(pool.data(), pool.size(), out.data());
            return out[i % out.size()];
        },
        pool.size(), budget, &sink);

    // One subgradient iterate's gradient: numericGradient builds the
    // 2n central-difference probes and scores them through the
    // objective's evaluateBatch; a plain lambda hides that facet, so
    // the same probes cost 2n scalar estimate() calls.
    CostModel cost = CostModel::defaultModel();
    std::vector<TargetWorkload> targets = {{w, 1.0}};
    ScalarObjective batchedObjective =
        makeObjective(OptimizationObjective::PerfOpt, est, cost, targets);
    ScalarObjective scalarObjective = [&cw](const Vec& x) {
        return cw.estimate(x);
    };
    double gradScalar = measure(
        [&](std::size_t i) {
            return numericGradient(scalarObjective,
                                   pool[i % pool.size()])[0];
        },
        2 * dims, budget, &sink);
    double gradBatch = measure(
        [&](std::size_t i) {
            return numericGradient(batchedObjective,
                                   pool[i % pool.size()])[0];
        },
        2 * dims, budget, &sink);

    Table t;
    t.header({"Path", "evals/sec", "speedup vs direct"});
    t.row({"direct estimator", Table::num(direct, 0), "1.00"});
    t.row({"compiled SoA", Table::num(soa, 0),
           Table::num(soa / direct, 2)});
    t.row({std::string("SIMD batched (") + activeSimdKernel() + ")",
           Table::num(batched, 0), Table::num(batched / direct, 2)});
    t.row({"gradient probes, scalar", Table::num(gradScalar, 0),
           Table::num(gradScalar / direct, 2)});
    t.row({"gradient probes, batched", Table::num(gradBatch, 0),
           Table::num(gradBatch / direct, 2)});
    t.print(std::cout);

    Json j = Json::object();
    j["bench"] = "micro_objective_eval";
    j["network"] = net.name();
    j["workload"] = w.name;
    j["simd_kernel"] = activeSimdKernel();
    j["direct_evals_per_sec"] = direct;
    j["soa_evals_per_sec"] = soa;
    j["soa_speedup_vs_direct"] = soa / direct;
    j["batch_evals_per_sec"] = batched;
    j["batch_speedup_vs_soa"] = batched / soa;
    j["gradient_probes"] = 2 * dims;
    j["gradient_scalar_evals_per_sec"] = gradScalar;
    j["gradient_batch_evals_per_sec"] = gradBatch;
    j["gradient_batch_speedup_vs_soa"] = gradBatch / gradScalar;
    bench::writeBenchJson("BENCH_objective.json", j);
    std::cout << "\nWrote BENCH_objective.json (SIMD batch speedup "
              << Table::num(batched / soa, 2) << "x vs scalar SoA, "
              << "gradient batch " << Table::num(gradBatch / gradScalar, 2)
              << "x vs scalar probes).\n";
}

} // namespace
} // namespace libra

int
main()
{
    libra::setInformEnabled(false);
    libra::run();
    return 0;
}
