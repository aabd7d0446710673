/**
 * @file
 * Timing-backend throughput microbenchmark.
 *
 * Measures the cost of the pluggable collective-timing seam along the
 * axes that matter for study runtime:
 *
 *  - per-collective queries/sec of the analytical backend vs the
 *    chunk-sim backend, every query a fresh simulation (the backend
 *    keeps no cache);
 *  - TrainingEstimator::estimate() calls/sec at a crossval design
 *    point (Turing-NLG on RI(4)_FC(4)_SW(4) at a 250 GB/s budget)
 *    under each backend. Under chunk-sim each call simulates every
 *    distinct collective of the workload once, which is the cost the
 *    crossval scenario pays per objective evaluation.
 *
 * Emits machine-readable BENCH_backend.json for CI tracking, so
 * sim-backend throughput regressions show up in the perf trajectory.
 */

#include <chrono>

#include "bench_util.hh"
#include "common/json.hh"
#include "common/random.hh"
#include "common/thread_pool.hh"
#include "core/estimator.hh"
#include "core/timing_backend.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Queries/sec of @p backend over @p iters distinct collectives. */
double
timingQueriesPerSec(const TimingBackend* backend, int iters,
                    const std::vector<DimSpan>& spans,
                    const BwConfig& bw)
{
    backend->timing(CollectiveType::AllReduce, 1e9, spans, bw, false);
    double sink = 0.0;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
        Bytes size = 1e9 + static_cast<double>(i);
        sink += backend
                    ->timing(CollectiveType::AllReduce, size, spans, bw,
                             false)
                    .time;
    }
    double elapsed = secondsSince(start);
    if (sink < 0.0) // Defeat dead-code elimination of the query loop.
        std::cout << "";
    return elapsed > 0.0 ? iters / elapsed : 0.0;
}

/** estimate() calls/sec for @p backendName on the crossval point. */
double
estimatesPerSec(const Network& net, const Workload& w,
                const std::string& backendName, int calls)
{
    EstimatorOptions opt;
    opt.timingBackend = backendName;
    TrainingEstimator estimator(net, opt);

    Rng rng(0xBEAC'4E11ull);
    std::vector<Vec> points;
    points.reserve(16);
    for (int i = 0; i < 16; ++i)
        points.push_back(rng.simplexPoint(net.numDims(), 250.0));

    estimator.estimate(w, points[0]); // Warm-up.
    double sink = 0.0;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < calls; ++i) {
        sink += estimator.estimate(
            w, points[static_cast<std::size_t>(i) % points.size()]);
    }
    double elapsed = secondsSince(start);
    if (sink < 0.0)
        std::cout << "";
    return elapsed > 0.0 ? calls / elapsed : 0.0;
}

void
run()
{
    bench::banner("micro",
                  "timing-backend throughput (analytical vs chunk-sim)");

    // Single-threaded so queries/sec measures the seam, not the pool.
    ThreadPool::setGlobalThreads(1);

    Network net = Network::parse("RI(4)_FC(4)_SW(4)");
    auto spans = mapGroupToDims(net, 1, net.npus());
    BwConfig bw = net.equalBw(250.0);
    const TimingBackend* analytical =
        resolveTimingBackend(kAnalyticalTimingBackendName);
    const TimingBackend* chunkSim =
        resolveTimingBackend(kChunkSimTimingBackendName);

    double anaQps = timingQueriesPerSec(analytical, 200000, spans, bw);
    double simQps = timingQueriesPerSec(chunkSim, 2000, spans, bw);

    Workload w = wl::turingNlg(net.npus());
    double anaEst = estimatesPerSec(net, w, kAnalyticalTimingBackendName,
                                    2000);
    double simEst = estimatesPerSec(net, w, kChunkSimTimingBackendName,
                                    400);

    Table t;
    t.header({"Path", "throughput/s"});
    t.row({"analytical query", Table::num(anaQps, 0)});
    t.row({"chunk-sim query (fresh simulation)", Table::num(simQps, 0)});
    t.row({"crossval-point estimate(), analytical",
           Table::num(anaEst, 0)});
    t.row({"crossval-point estimate(), chunk-sim",
           Table::num(simEst, 0)});
    t.print(std::cout);
    std::cout << "analytical-vs-sim estimate() ratio: "
              << Table::num(anaEst / simEst, 1) << "x\n";

    Json j = Json::object();
    j["bench"] = "micro_backend";
    j["network"] = net.name();
    j["workload"] = w.name;
    j["analytical_queries_per_sec"] = anaQps;
    j["chunk_sim_queries_per_sec"] = simQps;
    j["crossval_estimates_per_sec_analytical"] = anaEst;
    j["crossval_estimates_per_sec_chunk_sim"] = simEst;
    j["analytical_over_chunk_sim_estimate_ratio"] = anaEst / simEst;

    bench::writeBenchJson("BENCH_backend.json", j);
    std::cout << "\nWrote BENCH_backend.json.\n";
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
