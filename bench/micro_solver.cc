/**
 * @file
 * Search-strategy quality/efficiency benchmark on the Fig. 13 grid.
 *
 * For the grid's hard design points — the 4D-4K network (most
 * dimensions, so the largest search space) under the non-convex
 * PerfPerCostOptBW objective — every registered pipeline runs from the
 * same starts, and we record the objective-evaluation count at which
 * each one first reaches the default chain's final objective
 * ("evals to reference") plus its own final value. The point where the
 * best pipeline improves most over the default chain is flagged as
 * the grid's hardest; the headline table prints that point.
 *
 * Emits machine-readable BENCH_solver.json for CI tracking, so solver
 * regressions (quality or efficiency) show up in the perf trajectory
 * next to BENCH_backend.json. Runs are fully deterministic (fixed
 * seeds, single-threaded eval counting).
 */

#include <algorithm>
#include <limits>

#include "bench_util.hh"
#include "common/json.hh"
#include "common/thread_pool.hh"
#include "core/objective.hh"
#include "solver/multistart.hh"
#include "solver/qp.hh"
#include "solver/strategy.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {
namespace {

/** The pipelines under comparison ("" = the default chain). */
const std::vector<std::pair<std::string, std::string>> kPipelines{
    {"default-chain", ""},
    {"cmaes", "cmaes"},
    {"cmaes+polish", "cmaes,pattern-search"},
    {"de", "de"},
    {"de+polish", "de,pattern-search"},
};

struct StrategyOutcome
{
    std::string label;
    double finalObjective = 0.0;
    long long totalEvals = 0;
    long long evalsToReference = -1; // -1 = never reached.
    bool beatsDefault = false;
};

struct PointOutcome
{
    std::string workload;
    double totalBw = 0.0;
    double referenceObjective = 0.0; // Default chain's final value.
    std::vector<StrategyOutcome> strategies;
};

/** One pipeline's run with its improvement trajectory recorded. */
struct PipelineRun
{
    StrategyOutcome outcome;
    /** (eval count, new best value) at every improvement. */
    std::vector<std::pair<long long, double>> trajectory;
};

/**
 * Run one pipeline on one design point recording the improvement
 * trajectory, so evals-to-reference for any reference can be derived
 * afterwards without re-running.
 */
PipelineRun
runPipeline(const std::string& label, const std::string& spec,
            const ScalarObjective& f, const ConstraintSet& cs,
            const Vec& hint)
{
    // Serial counting wrapper: the harness pins the pool to one
    // thread, so the improvement trajectory is well ordered.
    PipelineRun run;
    long long evals = 0;
    double best = std::numeric_limits<double>::infinity();
    ScalarObjective counted = [&](const Vec& x) {
        double v = f(x);
        ++evals;
        if (v < best) {
            best = v;
            run.trajectory.emplace_back(evals, v);
        }
        return v;
    };

    MultistartOptions options = bench::benchSearch();
    if (!spec.empty())
        options.pipeline = parseSolverSpec(spec);
    SearchResult r = multistartMinimize(counted, cs, hint, options);

    run.outcome.label = label;
    run.outcome.finalObjective = r.value;
    run.outcome.totalEvals = evals;
    return run;
}

/** First eval count whose best value reaches @p reference. */
long long
evalsToReach(const std::vector<std::pair<long long, double>>& trajectory,
             double reference)
{
    const double leeway = 1.0 + 1e-9;
    for (const auto& [evals, value] : trajectory)
        if (value <= reference * leeway)
            return evals;
    return -1;
}

PointOutcome
runPoint(const Network& net, const Workload& w, double total_bw)
{
    TrainingEstimator estimator(net);
    CostModel costModel = CostModel::defaultModel();
    std::vector<TargetWorkload> targets{{w, 1.0}};
    ScalarObjective f =
        makeObjective(OptimizationObjective::PerfPerCostOpt, estimator,
                      costModel, targets);
    ConstraintSet cs(net.numDims());
    cs.addTotalBw(total_bw);
    cs.addLowerBounds(0.1);
    Vec hint = net.equalBw(total_bw);

    PointOutcome out;
    out.workload = w.name;
    out.totalBw = total_bw;

    // The default chain's final value defines the reference; each
    // run's evals-to-reference comes from its recorded trajectory.
    std::vector<PipelineRun> runs;
    for (const auto& [label, spec] : kPipelines)
        runs.push_back(runPipeline(label, spec, f, cs, hint));
    out.referenceObjective = runs[0].outcome.finalObjective;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        StrategyOutcome s = runs[i].outcome;
        s.evalsToReference =
            evalsToReach(runs[i].trajectory, out.referenceObjective);
        s.beatsDefault =
            i > 0 && s.finalObjective < out.referenceObjective;
        out.strategies.push_back(std::move(s));
    }
    return out;
}

void
run()
{
    bench::banner("micro",
                  "search-strategy quality on the Fig. 13 grid "
                  "(4D-4K, PerfPerCostOptBW)");

    // Deterministic trajectories: one eval at a time, in order.
    ThreadPool::setGlobalThreads(1);

    Network net = topo::fourD4K();
    std::vector<Workload> workloads{wl::turingNlg(net.npus()),
                                    wl::gpt3(net.npus()),
                                    wl::msft1T(net.npus())};

    std::vector<PointOutcome> points;
    for (const auto& w : workloads)
        for (double bw : {100.0, 1000.0})
            points.push_back(runPoint(net, w, bw));

    // Hardest point: where the best pipeline improves most over the
    // default chain (largest relative headroom the chain left behind).
    std::size_t hardest = 0;
    double worstHeadroom = -1.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        double best = points[i].referenceObjective;
        for (const auto& s : points[i].strategies)
            best = std::min(best, s.finalObjective);
        double headroom =
            points[i].referenceObjective / std::max(best, 1e-300) - 1.0;
        if (headroom > worstHeadroom) {
            worstHeadroom = headroom;
            hardest = i;
        }
    }

    const PointOutcome& hp = points[hardest];
    std::cout << "\nHardest design point: " << hp.workload << " @ "
              << hp.totalBw << " GB/s per NPU (default chain leaves "
              << Table::num(worstHeadroom * 100.0, 2)
              << "% objective headroom)\n";
    Table t;
    t.header({"Pipeline", "final objective", "vs default", "evals",
              "evals to ref"});
    for (const auto& s : hp.strategies) {
        t.row({s.label, Table::num(s.finalObjective, 6),
               Table::num(hp.referenceObjective / s.finalObjective, 4),
               std::to_string(s.totalEvals),
               s.evalsToReference < 0
                   ? "never"
                   : std::to_string(s.evalsToReference)});
    }
    t.print(std::cout);

    Json j = Json::object();
    j["bench"] = "micro_solver";
    j["network"] = net.name();
    j["objective"] = "PERF_PER_COST";
    j["hardest_workload"] = hp.workload;
    j["hardest_total_bw"] = hp.totalBw;
    j["hardest_headroom_pct"] = worstHeadroom * 100.0;
    Json pts = Json::array();
    bool cmaesWins = false;
    bool deWins = false;
    for (const auto& p : points) {
        Json pj = Json::object();
        pj["workload"] = p.workload;
        pj["total_bw"] = p.totalBw;
        pj["reference_objective"] = p.referenceObjective;
        Json arr = Json::array();
        for (const auto& s : p.strategies) {
            Json sj = Json::object();
            sj["pipeline"] = s.label;
            sj["final_objective"] = s.finalObjective;
            sj["total_evals"] = static_cast<double>(s.totalEvals);
            sj["evals_to_reference"] =
                static_cast<double>(s.evalsToReference);
            sj["beats_default"] = s.beatsDefault;
            arr.push(std::move(sj));
            if (s.beatsDefault && s.label.rfind("cmaes", 0) == 0)
                cmaesWins = true;
            if (s.beatsDefault && s.label.rfind("de", 0) == 0)
                deWins = true;
        }
        pj["strategies"] = std::move(arr);
        pts.push(std::move(pj));
    }
    j["points"] = std::move(pts);
    j["cmaes_beats_default_somewhere"] = cmaesWins;
    j["de_beats_default_somewhere"] = deWins;

    bench::writeBenchJson("BENCH_solver.json", j);
    std::cout << "\nWrote BENCH_solver.json (cmaes beats default "
                 "somewhere: "
              << (cmaesWins ? "yes" : "no")
              << "; de beats default somewhere: "
              << (deWins ? "yes" : "no") << ").\n";
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
