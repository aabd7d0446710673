/**
 * @file
 * Built-in paper scenarios: Table I-III and Figs. 9/10/13-18/21 as
 * registry entries, each run as `libra_cli run-matrix <name>`. The
 * paper claims each one reproduces are kept as its `notes`.
 *
 * Grid conventions: figures sharing the paper's evaluation grid
 * (workloads x networks x 100-1,000 GB/s x both objectives) build their
 * points in identical nested-loop order, so the matrix runner's content
 * dedup collapses fig13/fig14 onto a single optimization per point.
 *
 * The outer-loop exploration figures (fig16/17/18/21) are declared as
 * DesignSpaces (see docs/EXPLORE.md): the exhaustive expansion order
 * (objectives fastest, topologies slowest) reproduces their historical
 * hand enumerations bit for bit, and `--explore prune` searches the
 * same spaces adaptively. `explore-frontier` extends the idea past the
 * paper: a larger shape x scale x budget space with a Pareto emitter.
 */

#include <algorithm>
#include <cmath>

#include "common/table.hh"
#include "core/report.hh"
#include "core/timing_backend.hh"
#include "sim/chunk_timeline.hh"
#include "sim/training_sim.hh"
#include "study/scenario_util.hh"

namespace libra {

const std::vector<double>&
paperBwSweep()
{
    static const std::vector<double> sweep{100.0, 250.0, 500.0, 1000.0};
    return sweep;
}

MultistartOptions
paperSearchOptions()
{
    MultistartOptions opt;
    opt.starts = 3;
    return opt;
}

namespace {

/** Single-workload target list for the design-space workload axis. */
WorkloadChoice
soloWorkload(std::string label, WorkloadBuilder build)
{
    WorkloadChoice w;
    w.label = std::move(label);
    w.targets = [build](long npus) {
        return std::vector<TargetWorkload>{{build(npus), 1.0}};
    };
    return w;
}

/**
 * The Fig. 13/14 evaluation grid: for every (network, workload, budget)
 * cell, a PerfOpt point immediately followed by a PerfPerCost point.
 */
struct SpeedupGrid
{
    std::vector<topo::NamedNetwork> nets;

    std::vector<LibraInputs>
    build() const
    {
        std::vector<LibraInputs> points;
        for (const auto& [label, net] : nets) {
            for (const Workload& w :
                 {wl::turingNlg(net.npus()), wl::gpt3(net.npus()),
                  wl::msft1T(net.npus())}) {
                for (double bw : paperBwSweep()) {
                    points.push_back(makeStudyPoint(
                        net, w, OptimizationObjective::PerfOpt, bw));
                    points.push_back(makeStudyPoint(
                        net, w, OptimizationObjective::PerfPerCostOpt,
                        bw));
                }
            }
        }
        return points;
    }

    /** Visit build()'s cells as (net label, workload, bw, perf, ppc). */
    template <typename Fn>
    void
    visit(const std::vector<LibraInputs>& points,
          const std::vector<LibraReport>& reports, Fn fn) const
    {
        std::size_t i = 0;
        for (const auto& [label, net] : nets) {
            const std::string shape = net.name();
            for (; i < points.size() && points[i].networkShape == shape;
                 i += 2) {
                fn(label, points[i].targets[0].workload,
                   points[i].config.totalBw, reports[i], reports[i + 1]);
            }
        }
    }
};

SpeedupGrid
mainGrid()
{
    return {{{"3D", topo::threeD4K()}, {"4D", topo::fourD4K()}}};
}

// --- Table I / Fig. 12 -------------------------------------------------

Scenario
tbl1Scenario()
{
    Scenario s;
    s.name = "tbl1";
    s.title = "network cost model ($/GBps) and the Fig. 12 worked "
              "example";
    s.format = [](const std::vector<LibraInputs>&,
                  const std::vector<LibraReport>&) {
        ScenarioOutput out;
        CostModel m = CostModel::defaultModel();
        for (PhysicalLevel level :
             {PhysicalLevel::Chiplet, PhysicalLevel::Package,
              PhysicalLevel::Node, PhysicalLevel::Pod}) {
            ComponentCost c = m.levelCost(level);
            ScenarioRow row;
            row.label("level", physicalLevelName(level));
            row.metric("link", c.link);
            row.metric("switch", c.switch_);
            row.metric("nic", c.nic);
            out.rows.push_back(std::move(row));
        }

        // Fig. 12: the 3-NPU inter-Pod switch network at 10 GB/s.
        Network net = Network::parse("SW(3)");
        auto breakdown = m.breakdown(net, {10.0});
        ScenarioRow example;
        example.label("level", "fig12-example");
        example.metric("links", breakdown[0].linkCost);
        example.metric("switches", breakdown[0].switchCost);
        example.metric("nics", breakdown[0].nicCost);
        example.metric("total", breakdown[0].total());
        out.rows.push_back(std::move(example));

        out.summarize("fig12_total", breakdown[0].total());
        out.summarize("fig12_matches_paper",
                      std::abs(breakdown[0].total() - 1722.0) < 1e-6
                          ? 1.0
                          : 0.0);
        out.notes.push_back(
            "Fig. 12 worked example: paper value $1,722.");
        return out;
    };
    return s;
}

// --- Table II ----------------------------------------------------------

Scenario
tbl2Scenario()
{
    Scenario s;
    s.name = "tbl2";
    s.title = "workload specifications (4,096 NPUs)";
    s.format = [](const std::vector<LibraInputs>&,
                  const std::vector<LibraReport>&) {
        ScenarioOutput out;
        Network net = topo::fourD4K();
        TrainingEstimator est(net);
        BwConfig bw = net.equalBw(300.0);
        for (const auto& w : wl::tableTwo(net.npus())) {
            EstimateDetail d = est.detail(w, bw);
            ScenarioRow row;
            row.label("workload", w.name);
            row.metric("params", w.parameters);
            row.metric("tp", static_cast<double>(w.strategy.tp));
            row.metric("dp", static_cast<double>(w.strategy.dp));
            row.metric("layers", static_cast<double>(w.layers.size()));
            row.metric("compute_per_iter_s", w.totalCompute());
            row.metric("comm_payload_bytes", w.totalCommPayload());
            row.metric("iter_time_s", d.total);
            row.metric("exposed_comm_s", d.exposedComm);
            row.metric("comm_fraction_pct",
                       d.exposedComm / d.total * 100.0);
            out.rows.push_back(std::move(row));
        }
        out.notes.push_back("Iteration times at EqualBW 300 GB/s per "
                            "NPU, NoOverlap loop.");
        return out;
    };
    return s;
}

// --- Table III / Fig. 11 -----------------------------------------------

Scenario
tbl3Scenario()
{
    Scenario s;
    s.name = "tbl3";
    s.title = "multi-dimensional evaluation topologies and Fig. 11 "
              "real systems";
    s.format = [](const std::vector<LibraInputs>&,
                  const std::vector<LibraReport>&) {
        ScenarioOutput out;
        CostModel m = CostModel::defaultModel();
        for (const auto& [label, net] : topo::tableThree()) {
            ScenarioRow row;
            row.label("kind", "evaluation");
            row.label("name", label);
            row.label("shape", net.name());
            row.metric("npus", static_cast<double>(net.npus()));
            row.metric("dims", static_cast<double>(net.numDims()));
            row.metric("equalbw_cost_300",
                       m.networkCost(net, net.equalBw(300.0)));
            out.rows.push_back(std::move(row));
        }
        for (const auto& [label, net] : topo::realSystems()) {
            ScenarioRow row;
            row.label("kind", "real-system");
            row.label("name", label);
            row.label("shape", net.name());
            row.metric("npus", static_cast<double>(net.npus()));
            row.metric("dims", static_cast<double>(net.numDims()));
            out.rows.push_back(std::move(row));
        }
        return out;
    };
    return s;
}

// --- Fig. 9 ------------------------------------------------------------

Scenario
fig09Scenario()
{
    Scenario s;
    s.name = "fig09";
    s.title = "4-chunk All-Reduce on 3D networks with different BW "
              "allocations";
    s.format = [](const std::vector<LibraInputs>&,
                  const std::vector<LibraReport>&) {
        ScenarioOutput out;
        // Traffic shares on a 4x4x4 multi-rail AR are
        // (1.5, 0.375, 0.094)m; see the file comment of fig09's bench.
        const double total = 300.0;
        const double share = 1.5 + 0.375 + 0.09375;
        struct Alloc
        {
            std::string label;
            BwConfig bw;
        };
        std::vector<Alloc> allocs{
            {"underprovisioned-dim1", {30.0, 135.0, 135.0}},
            {"underprovisioned-dim2", {200.0, 10.0, 90.0}},
            {"ideal",
             {total * 1.5 / share, total * 0.375 / share,
              total * 0.09375 / share}},
        };
        for (const auto& alloc : allocs) {
            ChunkTimeline tl(3, alloc.bw);
            CollectiveJob job;
            job.type = CollectiveType::AllReduce;
            job.size = 1e9;
            job.spans = {{0, 4}, {1, 4}, {2, 4}};
            job.numChunks = 4;
            TimelineResult r = tl.run({job}, true);

            ScenarioRow row;
            row.label("allocation", alloc.label);
            row.label("bw_config", bwConfigToString(alloc.bw));
            row.metric("allreduce_time_s", r.makespan);
            row.metric("avg_bw_util_pct", r.avgBwUtilization * 100.0);
            out.rows.push_back(std::move(row));

            out.notes.push_back("--- " + alloc.label + " (B = " +
                                bwConfigToString(alloc.bw) + ") ---\n" +
                                r.render(3, 68));
        }
        out.notes.push_back(
            "Claim check: an underprovisioned dimension saturates while "
            "the others idle; the ideal allocation keeps every "
            "dimension busy outside pipeline bubbles.");
        return out;
    };
    return s;
}

// --- Fig. 10 -----------------------------------------------------------

Scenario
fig10Scenario()
{
    Scenario s;
    s.name = "fig10";
    s.title = "MSFT-1T runtime vs network BW utilization (300 GB/s per "
              "NPU)";
    s.build = [] {
        std::vector<LibraInputs> points;
        for (const auto& [label, net] : fig10Nets()) {
            points.push_back(
                makeStudyPoint(net, wl::msft1T(net.npus()),
                               OptimizationObjective::PerfOpt, 300.0));
        }
        return points;
    };
    s.format = [](const std::vector<LibraInputs>& points,
                  const std::vector<LibraReport>& reports) {
        ScenarioOutput out;
        std::vector<topo::NamedNetwork> nets = fig10Nets();
        double maxSpeedup = 0.0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Network& net = nets[i].network;
            const std::string& label = nets[i].label;
            const Workload& w = points[i].targets[0].workload;
            TrainingSim sim(net, {});
            TrainingSimResult equal =
                sim.simulate(w, net.equalBw(points[i].config.totalBw));
            TrainingSimResult tuned =
                sim.simulate(w, reports[i].optimized.bw);

            auto row = [&](const std::string& alloc) {
                ScenarioRow r;
                r.label("net", label);
                r.label("alloc", alloc);
                return r;
            };
            ScenarioRow eq = row("EqualBW");
            eq.metric("runtime_norm", 1.0);
            eq.metric("bw_util_pct", equal.avgBwUtilization * 100.0);
            eq.metric("speedup", 1.0);
            out.rows.push_back(std::move(eq));

            ScenarioRow tu = row("LIBRA");
            tu.metric("runtime_norm", tuned.total / equal.total);
            tu.metric("bw_util_pct", tuned.avgBwUtilization * 100.0);
            tu.metric("speedup", equal.total / tuned.total);
            out.rows.push_back(std::move(tu));
            maxSpeedup =
                std::max(maxSpeedup, equal.total / tuned.total);

            ScenarioRow pc = row("PureCompute");
            pc.metric("runtime_norm",
                      equal.computeTotal / equal.total);
            pc.metric("speedup", equal.total / equal.computeTotal);
            out.rows.push_back(std::move(pc));
        }
        out.summarize("max_libra_speedup", maxSpeedup);
        out.notes.push_back(
            "Claim check: EqualBW utilization is far below 100%; the "
            "workload-aware allocation raises utilization and yields "
            ">1x speedup (paper: up to 1.83x on 3D; EqualBW "
            "utilizations 57.5% / 39.0% / 66.7% for 2D/3D/4D).");
        return out;
    };
    return s;
}

// --- Fig. 13 -----------------------------------------------------------

Scenario
fig13Scenario()
{
    Scenario s;
    s.name = "fig13";
    s.title = "training speedup over EqualBW (LIBRA-optimized networks)";
    s.build = [] { return mainGrid().build(); };
    s.format = [](const std::vector<LibraInputs>& points,
                  const std::vector<LibraReport>& reports) {
        ScenarioOutput out;
        double sum = 0.0, best = 0.0;
        int n = 0;
        mainGrid().visit(
            points, reports,
            [&](const std::string& net, const Workload& w, double bw,
                const LibraReport& perf, const LibraReport& ppc) {
                ScenarioRow row;
                row.label("workload", w.name);
                row.label("net", net);
                row.label("bw_per_npu", bwLabel(bw));
                row.label("perfopt_bw_config",
                          bwConfigToString(perf.optimized.bw, 0));
                row.metric("speedup_perfopt", perf.speedup);
                row.metric("speedup_perfpercost", ppc.speedup);
                out.rows.push_back(std::move(row));
                sum += perf.speedup;
                best = std::max(best, perf.speedup);
                ++n;
            });
        out.summarize("perfopt_avg_speedup", sum / n);
        out.summarize("perfopt_max_speedup", best);
        out.notes.push_back(
            "PerfOptBW speedup (paper: avg 1.23x, max 2.00x). Claim "
            "check: PerfOpt >= 1x everywhere; GPT-3+4D near 1x (TP-16 "
            "vs dim-2=8 mismatch).");
        return out;
    };
    return s;
}

// --- Fig. 14 -----------------------------------------------------------

Scenario
fig14Scenario()
{
    Scenario s;
    s.name = "fig14";
    s.title = "perf-per-cost benefit over EqualBW baseline";
    s.build = [] { return mainGrid().build(); };
    s.format = [](const std::vector<LibraInputs>& points,
                  const std::vector<LibraReport>& reports) {
        ScenarioOutput out;
        double sumPerf = 0.0, sumPpc = 0.0, maxPpc = 0.0;
        int n = 0;
        mainGrid().visit(
            points, reports,
            [&](const std::string& net, const Workload& w, double bw,
                const LibraReport& perf, const LibraReport& ppc) {
                ScenarioRow row;
                row.label("workload", w.name);
                row.label("net", net);
                row.label("bw_per_npu", bwLabel(bw));
                row.label("perfpercost_cost",
                          dollarsToString(ppc.optimized.cost));
                row.metric("ppc_gain_perfopt", perf.perfPerCostGain);
                row.metric("ppc_gain_perfpercost", ppc.perfPerCostGain);
                out.rows.push_back(std::move(row));
                sumPerf += perf.perfPerCostGain;
                sumPpc += ppc.perfPerCostGain;
                maxPpc = std::max(maxPpc, ppc.perfPerCostGain);
                ++n;
            });
        out.summarize("perfopt_avg_ppc_gain", sumPerf / n);
        out.summarize("perfpercost_avg_ppc_gain", sumPpc / n);
        out.summarize("perfpercost_max_ppc_gain", maxPpc);
        out.notes.push_back(
            "Perf-per-cost over EqualBW (paper: PerfOpt avg 5.40x; "
            "PerfPerCost avg 9.16x, max 13.02x). Claim check: "
            "PerfPerCostOptBW wins perf-per-cost at every design "
            "point.");
        return out;
    };
    return s;
}

// --- Fig. 15 -----------------------------------------------------------

Scenario
fig15Scenario()
{
    Scenario s;
    s.name = "fig15";
    s.title = "ResNet-50 and DLRM on 4D-4K (speedup and perf-per-cost "
              "over EqualBW)";
    s.build = [] {
        Network net = topo::fourD4K();
        std::vector<LibraInputs> points;
        for (const auto& w :
             {wl::resnet50(net.npus()), wl::dlrm(net.npus())}) {
            for (double bw : paperBwSweep()) {
                points.push_back(makeStudyPoint(
                    net, w, OptimizationObjective::PerfOpt, bw));
                points.push_back(makeStudyPoint(
                    net, w, OptimizationObjective::PerfPerCostOpt, bw));
            }
        }
        return points;
    };
    s.format = [](const std::vector<LibraInputs>& points,
                  const std::vector<LibraReport>& reports) {
        ScenarioOutput out;
        double sumSaving = 0.0;
        int n = 0;
        for (std::size_t i = 0; i + 1 < points.size(); i += 2) {
            const LibraReport& perf = reports[i];
            const LibraReport& ppc = reports[i + 1];
            double saving =
                1.0 - ppc.optimized.cost / perf.optimized.cost;
            sumSaving += saving;
            ++n;

            ScenarioRow row;
            row.label("workload",
                      points[i].targets[0].workload.name);
            row.label("bw_per_npu", bwLabel(points[i].config.totalBw));
            row.metric("speedup_perfopt", perf.speedup);
            row.metric("speedup_perfpercost", ppc.speedup);
            row.metric("ppc_gain_perfopt", perf.perfPerCostGain);
            row.metric("ppc_gain_perfpercost", ppc.perfPerCostGain);
            row.metric("cost_saving_pct", saving * 100.0);
            out.rows.push_back(std::move(row));
        }
        out.summarize("avg_cost_saving_pct", sumSaving / n * 100.0);
        out.notes.push_back(
            "PerfPerCostOptBW networks are cheaper than PerfOptBW ones "
            "(paper: 15.41% on average for these workloads); LIBRA "
            "needs no modification for non-transformer models.");
        return out;
    };
    return s;
}

// --- Fig. 16 -----------------------------------------------------------

/**
 * The Fig. 16 study as a design space: topology shape/scale crossed
 * with the budget sweep and both objectives. Under the default
 * exhaustive strategy the expansion order (topology, then budget, then
 * objective) reproduces the historical hand enumeration bit for bit —
 * the fig16 golden file was generated from the pre-refactor loop and
 * still passes byte-identically.
 */
DesignSpace
fig16Space()
{
    DesignSpace space;
    for (const auto& [label, net] : fig16Nets())
        space.topologies.push_back({label, net.name()});
    space.workloads.push_back(soloWorkload("MSFT-1T", wl::msft1T));
    space.budgets = paperBwSweep();
    space.objectives = {OptimizationObjective::PerfOpt,
                        OptimizationObjective::PerfPerCostOpt};
    space.search = paperSearchOptions();
    return space;
}

Scenario
fig16Scenario()
{
    Scenario s;
    s.name = "fig16";
    s.title = "MSFT-1T on 3D-512 / 3D-1K / 4D-2K topologies";
    s.space = fig16Space;
    s.formatSpace = [](const ExploreResult& r) {
        ScenarioOutput out;
        // Objectives vary fastest, so outcomes pair up as
        // (PerfOpt, PerfPerCost) per (topology, budget) cell; the row
        // identity comes from the candidate labels, not from index
        // arithmetic over the axis sizes.
        for (std::size_t i = 0; i + 1 < r.outcomes.size(); i += 2) {
            const ExploreOutcome& perf = r.outcomes[i];
            const ExploreOutcome& ppc = r.outcomes[i + 1];
            ScenarioRow row;
            row.label("net", perf.candidate.topology);
            row.label("bw_per_npu", bwLabel(perf.candidate.budget));
            row.metric("speedup_perfopt", perf.report.speedup);
            row.metric("speedup_perfpercost", ppc.report.speedup);
            row.metric("ppc_gain_perfopt", perf.report.perfPerCostGain);
            row.metric("ppc_gain_perfpercost",
                       ppc.report.perfPerCostGain);
            out.rows.push_back(std::move(row));
        }
        out.notes.push_back(
            "Claim check: PerfOpt speedup >= 1x and PerfPerCost ppc > "
            "1x on every topology shape/scale — LIBRA generalizes "
            "across network shapes, sizes, and dimensionalities.");
        noteScreenedOutcomes(out, r);
        return out;
    };
    return s;
}

// --- Fig. 17 -----------------------------------------------------------

/**
 * The Fig. 17 study as a design space: one topology/budget/objective,
 * with the workload axis enumerating each ensemble's single-target
 * points followed by its weight-normalized group point — the same
 * order the hand-rolled loop produced.
 */
DesignSpace
fig17Space()
{
    DesignSpace space;
    Network net = topo::fourD4K();
    space.topologies.push_back({"4D-4K", net.name()});
    const std::vector<std::string> studyKeys{"a", "b"};
    for (std::size_t study = 0; study < fig17Studies().size(); ++study) {
        const auto& members = fig17Studies()[study];
        for (WorkloadBuilder build : members) {
            space.workloads.push_back(soloWorkload(
                studyKeys[study] + ":" + build(net.npus()).name, build));
        }
        WorkloadChoice group;
        group.label = studyKeys[study] + ":Group-Opt";
        group.normalizeWeights = true;
        group.targets = [&members](long npus) {
            std::vector<TargetWorkload> targets;
            for (WorkloadBuilder build : members)
                targets.push_back({build(npus), 1.0});
            return targets;
        };
        space.workloads.push_back(std::move(group));
    }
    space.budgets = {1000.0};
    space.objectives = {OptimizationObjective::PerfOpt};
    space.search = paperSearchOptions();
    return space;
}

Scenario
fig17Scenario()
{
    Scenario s;
    s.name = "fig17";
    s.title = "single-target vs group network optimization (4D-4K @ "
              "1,000 GB/s)";
    s.space = fig17Space;
    s.formatSpace = [](const ExploreResult& r) {
        ScenarioOutput out;
        Network net = topo::fourD4K();
        TrainingEstimator est(net);
        BwConfig equal = net.equalBw(1000.0);
        const std::vector<std::string> studyKeys{"a", "b"};

        std::size_t base = 0;
        for (std::size_t study = 0; study < fig17Studies().size();
             ++study) {
            // A study's single-target candidates precede its group
            // candidate, whose targets are the members in order.
            const std::vector<TargetWorkload>& members =
                r.outcomes[base + fig17Studies()[study].size()]
                    .candidate.inputs.targets;
            std::vector<Seconds> tEq, tOwn;
            for (std::size_t i = 0; i < members.size(); ++i) {
                tEq.push_back(est.estimate(members[i].workload, equal));
                tOwn.push_back(est.estimate(
                    members[i].workload,
                    r.outcomes[base + i].report.optimized.bw));
            }

            double groupSlowdownSum = 0.0, maxCross = 1.0;
            auto evalRows = [&](const std::string& target,
                                const BwConfig& bw, bool isGroup) {
                for (std::size_t i = 0; i < members.size(); ++i) {
                    Seconds tX = est.estimate(members[i].workload, bw);
                    double slowdown = tX / tOwn[i];
                    if (isGroup)
                        groupSlowdownSum += slowdown;
                    else
                        maxCross = std::max(maxCross, slowdown);
                    ScenarioRow row;
                    row.label("study", studyKeys[study]);
                    row.label("opt_target", target);
                    row.label("workload", members[i].workload.name);
                    row.metric("speedup_vs_equalbw", tEq[i] / tX);
                    row.metric("slowdown_vs_own_opt", slowdown);
                    out.rows.push_back(std::move(row));
                }
            };
            for (std::size_t i = 0; i < members.size(); ++i) {
                evalRows(members[i].workload.name,
                         r.outcomes[base + i].report.optimized.bw,
                         false);
            }
            evalRows("Group-Opt",
                     r.outcomes[base + members.size()]
                         .report.optimized.bw,
                     true);

            out.summarize(studyKeys[study] + "_max_cross_slowdown",
                          maxCross);
            out.summarize(
                studyKeys[study] + "_group_avg_slowdown",
                groupSlowdownSum /
                    static_cast<double>(members.size()));
            base += members.size() + 1;
        }
        out.notes.push_back(
            "Claim check: single-target networks can slow other "
            "workloads down (paper: up to 1.77x); the group-optimized "
            "network is near-optimal for every member (paper: avg "
            "slowdown 1.01x). Study (a) group-optimizes LLMs, (b) a "
            "DNN mixture.");
        noteScreenedOutcomes(out, r);
        return out;
    };
    return s;
}

// --- Fig. 18 -----------------------------------------------------------

/**
 * The Fig. 18 study as a design space: the cost-model axis sweeps the
 * inter-Package link price; everything else is a single value.
 */
DesignSpace
fig18Space()
{
    DesignSpace space;
    space.topologies.push_back({"4D-4K", topo::fourD4K().name()});
    space.workloads.push_back(soloWorkload("MSFT-1T", wl::msft1T));
    for (double price : {1.0, 2.0, 3.0, 4.0, 5.0}) {
        CostChoice cost;
        cost.label = Table::num(price, 0);
        ComponentCost pkg =
            cost.model.levelCost(PhysicalLevel::Package);
        pkg.link = price;
        cost.model.setLevelCost(PhysicalLevel::Package, pkg);
        space.costs.push_back(std::move(cost));
    }
    space.budgets = {1000.0};
    space.objectives = {OptimizationObjective::PerfPerCostOpt};
    space.search = paperSearchOptions();
    return space;
}

Scenario
fig18Scenario()
{
    Scenario s;
    s.name = "fig18";
    s.title = "inter-Package link cost sweep ($1-$5/GBps, 4D-4K @ "
              "1,000 GB/s)";
    s.space = fig18Space;
    s.formatSpace = [](const ExploreResult& r) {
        ScenarioOutput out;
        double sum = 0.0, best = 0.0;
        for (const ExploreOutcome& o : r.outcomes) {
            double gain = o.report.perfPerCostGain;
            sum += gain;
            best = std::max(best, gain);
            ScenarioRow row;
            row.label("pkg_link_cost", o.candidate.cost);
            row.label("bw_config",
                      bwConfigToString(o.report.optimized.bw, 0));
            row.metric("ppc_gain", gain);
            row.metric("network_cost", o.report.optimized.cost);
            out.rows.push_back(std::move(row));
        }
        out.summarize("avg_ppc_gain",
                      sum / static_cast<double>(r.outcomes.size()));
        out.summarize("max_ppc_gain", best);
        out.notes.push_back(
            "Claim check: the benefit persists across the sweep "
            "(paper avg 4.06x, max 5.59x) — the user-defined cost "
            "model is a first-class input.");
        noteScreenedOutcomes(out, r);
        return out;
    };
    return s;
}

// --- Fig. 21 -----------------------------------------------------------

/**
 * The Fig. 21 study as a design space: the workload axis enumerates
 * the parallelization strategies (TP degree; DP fills the rest).
 */
DesignSpace
fig21Space()
{
    DesignSpace space;
    space.topologies.push_back({"4D-4K", topo::fourD4K().name()});
    for (long tp : fig21TpDegrees()) {
        WorkloadChoice w;
        w.label = "TP-" + std::to_string(tp);
        w.targets = [tp](long npus) {
            return std::vector<TargetWorkload>{
                {wl::msft1TWithStrategy(tp, npus / tp), 1.0}};
        };
        space.workloads.push_back(std::move(w));
    }
    space.budgets = {1000.0};
    space.objectives = {OptimizationObjective::PerfOpt};
    space.search = paperSearchOptions();
    return space;
}

Scenario
fig21Scenario()
{
    Scenario s;
    s.name = "fig21";
    s.title = "network + parallelization co-design (MSFT-1T, 4D-4K @ "
              "1,000 GB/s)";
    s.space = fig21Space;
    s.formatSpace = [](const ExploreResult& r) {
        ScenarioOutput out;
        // Baseline: EqualBW under the Table II default HP-(128, 32) —
        // the tp == 128 candidate's own EqualBW result.
        Seconds tBase = 0.0;
        for (const ExploreOutcome& o : r.outcomes) {
            if (o.candidate.inputs.targets[0].workload.strategy.tp ==
                128) {
                tBase = o.report.equalBw.weightedTime;
            }
        }

        double bestSpeedup = 0.0;
        for (const ExploreOutcome& o : r.outcomes) {
            const Workload& w = o.candidate.inputs.targets[0].workload;
            double speedupEq = tBase / o.report.equalBw.weightedTime;
            double speedupCo =
                tBase / o.report.optimized.weightedTime;
            bestSpeedup = std::max(bestSpeedup, speedupCo);
            ScenarioRow row;
            row.label("strategy", w.strategy.name());
            row.label("codesigned_bw_config",
                      bwConfigToString(o.report.optimized.bw, 0));
            row.metric("speedup_equalbw", speedupEq);
            row.metric("speedup_codesign", speedupCo);
            out.rows.push_back(std::move(row));
        }
        out.summarize("best_codesign_speedup", bestSpeedup);
        out.notes.push_back(
            "Claim check: a mid-range TP (paper: HP-(64,64)) with its "
            "co-optimized network is fastest (paper: 1.19x over the "
            "HP-(128,32)+EqualBW baseline); performance degrades "
            "sharply once TP drops below 32.");
        noteScreenedOutcomes(out, r);
        return out;
    };
    return s;
}

// --- Frontier exploration ----------------------------------------------

/**
 * A strictly larger shape x scale x budget space than any paper
 * figure: eight topology compositions from 512 to 4,096 NPUs (the six
 * zoo evaluation shapes plus two novel compositions), five per-NPU
 * budgets, both objectives — 80 candidates. The formatter emits the
 * time-vs-dollars Pareto frontier over the full-budget designs; under
 * `--explore prune` only the screened survivors reach the full search
 * budget, which is the intended way to run it.
 */
DesignSpace
frontierSpace()
{
    DesignSpace space;
    space.topologies = {{"3D-512", topo::threeD512().name()},
                        {"2D-1K", "RI(32)_SW(32)"},
                        {"3D-1K", topo::threeD1K().name()},
                        {"3D-2K", "RI(8)_FC(8)_SW(32)"},
                        {"4D-2K", topo::fourD2K().name()},
                        {"2D-4K", topo::twoD4K().name()},
                        {"3D-4K", topo::threeD4K().name()},
                        {"4D-4K", topo::fourD4K().name()}};
    space.workloads.push_back(soloWorkload("MSFT-1T", wl::msft1T));
    space.budgets = {100.0, 250.0, 500.0, 750.0, 1000.0};
    space.objectives = {OptimizationObjective::PerfOpt,
                        OptimizationObjective::PerfPerCostOpt};
    space.search = paperSearchOptions();
    return space;
}

/**
 * Shared frontier formatter: the time-vs-dollars Pareto set over the
 * full-budget designs; minimize (iteration time, network dollars). A
 * design survives when no other full-budget design is at least as good
 * on both axes and better on one. Used by explore-frontier and its
 * scaled-up sibling frontier-xl.
 */
ScenarioOutput
formatFrontier(const ExploreResult& r)
{
    ScenarioOutput out;

    auto dominated = [&](const ExploreOutcome& o) {
        for (const ExploreOutcome& other : r.outcomes) {
            if (!other.fullBudget || &other == &o)
                continue;
            double t0 = o.report.optimized.weightedTime;
            double c0 = o.report.optimized.cost;
            double t1 = other.report.optimized.weightedTime;
            double c1 = other.report.optimized.cost;
            if (t1 <= t0 && c1 <= c0 && (t1 < t0 || c1 < c0))
                return true;
        }
        return false;
    };

    std::size_t frontier = 0;
    for (const ExploreOutcome& o : r.outcomes) {
        bool pareto = o.fullBudget && !dominated(o);
        frontier += pareto ? 1 : 0;
        ScenarioRow row;
        row.label("net", o.candidate.topology);
        row.label("bw_per_npu", bwLabel(o.candidate.budget));
        row.label("objective", objectiveName(o.candidate.objective));
        row.label("stage", o.fullBudget ? "full" : "screened");
        row.metric("iter_time_s", o.report.optimized.weightedTime);
        row.metric("network_cost", o.report.optimized.cost);
        row.metric("speedup", o.report.speedup);
        row.metric("pareto", pareto ? 1.0 : 0.0);
        out.rows.push_back(std::move(row));
    }
    out.summarize("candidates",
                  static_cast<double>(r.outcomes.size()));
    out.summarize("full_runs", static_cast<double>(r.fullRuns));
    out.summarize("screen_runs",
                  static_cast<double>(r.screenRuns));
    out.summarize("pareto_size", static_cast<double>(frontier));
    out.notes.push_back(
        "The frontier spans budget-bound small shapes (cheapest) "
        "to 4D-4K at 1,000 GB/s (fastest); dominated shapes never "
        "pay for their dimensionality. Screened rows show the "
        "cheap ranking pass a pruning strategy used; only 'full' "
        "rows are Pareto-eligible.");
    return out;
}

Scenario
frontierScenario()
{
    Scenario s;
    s.name = "explore-frontier";
    s.title = "MSFT-1T shape x scale x budget frontier (time vs "
              "dollars Pareto set)";
    s.space = frontierSpace;
    s.formatSpace = formatFrontier;
    return s;
}

/**
 * frontier-xl: the same study scaled past what one process frontier
 * sweep should have to shoulder — two extra topology compositions and
 * a sixth budget rung, 120 candidates against explore-frontier's 80.
 * The bench harness runs it single-process vs `--workers N` to
 * demonstrate wall-clock scaling at byte-identical output
 * (docs/SHARDING.md); the Pareto winners must not move.
 */
DesignSpace
frontierXlSpace()
{
    DesignSpace space = frontierSpace();
    space.topologies.push_back({"2D-2K", "RI(64)_SW(32)"});
    space.topologies.push_back({"4D-1K", "RI(4)_FC(4)_RI(8)_SW(8)"});
    space.budgets.push_back(375.0);
    return space;
}

Scenario
frontierXlScenario()
{
    Scenario s;
    s.name = "frontier-xl";
    s.title = "scaled-up MSFT-1T frontier (sharded-execution "
              "benchmark space)";
    s.space = frontierXlSpace;
    s.formatSpace = formatFrontier;
    return s;
}

// --- Estimator <-> simulator cross-validation --------------------------

/**
 * The crossval grid: small full-dimension networks the chunk simulator
 * executes in smoke-test time, with one DP-only and one TP+DP workload
 * each, so both whole-dimension and partial-span collectives are
 * exercised.
 */
std::vector<topo::NamedNetwork>
crossvalNets()
{
    return {{"3D-64", Network::parse("RI(4)_FC(4)_SW(4)")},
            {"2D-64", Network::parse("FC(8)_RI(8)")}};
}

std::vector<Workload>
crossvalWorkloads(const Network& net)
{
    return {wl::resnet50(net.npus()), wl::turingNlg(net.npus())};
}

const std::vector<double>&
crossvalBudgets()
{
    static const std::vector<double> budgets{250.0, 500.0};
    return budgets;
}

Scenario
crossvalScenario()
{
    Scenario s;
    s.name = "crossval";
    s.title = "analytical-estimator error vs the chunk-level timing "
              "backend, per design point";
    s.build = [] {
        std::vector<LibraInputs> points;
        for (const auto& [label, net] : crossvalNets()) {
            for (const auto& w : crossvalWorkloads(net)) {
                for (double bw : crossvalBudgets()) {
                    LibraInputs p = makeStudyPoint(
                        net, w, OptimizationObjective::PerfOpt, bw);
                    // Optimize for chunk-sim: the search runs
                    // analytically and a final polish runs under the
                    // simulator (docs/BACKENDS.md, "Cross-fidelity
                    // search"). The formatter then cross-evaluates the
                    // same designs analytically.
                    p.config.estimator.timingBackend =
                        kChunkSimTimingBackendName;
                    // The budget caps each analytical start and the
                    // simulated polish; it keeps the scenario
                    // smoke-test sized under `--backend themis`, whose
                    // whole search is simulated (and is part of the
                    // cache key, so cached runs stay consistent).
                    p.config.search.maxEvalsPerStart = 600;
                    points.push_back(std::move(p));
                }
            }
        }
        return points;
    };
    s.format = [](const std::vector<LibraInputs>& points,
                  const std::vector<LibraReport>& reports) {
        ScenarioOutput out;
        double maxErr = 0.0;
        double sumErr = 0.0;
        for (std::size_t i = 0; i < points.size(); ++i) {
            const LibraInputs& p = points[i];
            const LibraReport& r = reports[i];
            Network net = Network::parse(p.networkShape);

            // Cross-evaluate the designs optimized for the backend
            // (analytical search, simulated polish under chunk-sim)
            // under the analytical model: same bandwidth configs, same
            // targets, only the timing source differs.
            EstimatorOptions analyticalOpt = p.config.estimator;
            analyticalOpt.timingBackend.clear();
            TrainingEstimator analytical(net, analyticalOpt);
            Seconds anaEqual =
                weightedTime(analytical, p.targets, r.equalBw.bw);
            Seconds anaOpt =
                weightedTime(analytical, p.targets, r.optimized.bw);
            double errEqual =
                anaEqual > 0.0
                    ? std::abs(r.equalBw.weightedTime - anaEqual) /
                          anaEqual
                    : 0.0;
            double errOpt =
                anaOpt > 0.0
                    ? std::abs(r.optimized.weightedTime - anaOpt) /
                          anaOpt
                    : 0.0;
            maxErr = std::max({maxErr, errEqual, errOpt});
            sumErr += errEqual + errOpt;

            ScenarioRow row;
            row.label("net", net.name());
            row.label("workload", p.targets[0].workload.name);
            row.label("backend",
                      timingBackendOrDefault(
                          p.config.estimator.timingBackend));
            row.label("total_bw", bwLabel(p.config.totalBw));
            row.metric("backend_equal_time_s", r.equalBw.weightedTime);
            row.metric("analytical_equal_time_s", anaEqual);
            row.metric("rel_err_equal", errEqual);
            row.metric("backend_opt_time_s", r.optimized.weightedTime);
            row.metric("analytical_opt_time_s", anaOpt);
            row.metric("rel_err_opt", errOpt);
            row.metric("backend_speedup", r.speedup);
            out.rows.push_back(std::move(row));
        }
        if (!points.empty()) {
            out.summarize("max_rel_err", maxErr);
            out.summarize("mean_rel_err",
                          sumErr /
                              (2.0 * static_cast<double>(points.size())));
        }
        out.notes.push_back(
            "Claim check (paper §IV-C premise): the analytical "
            "latency-bandwidth estimator tracks chunk-level simulation "
            "closely enough to drive topology optimization — the "
            "deviation is the pipeline fill/drain ramp, bounded by "
            "sum_i t_i / numChunks per collective (docs/BACKENDS.md).");
        return out;
    };
    return s;
}

} // namespace

void
registerBuiltinScenarios(ScenarioRegistry& registry)
{
    registry.add(tbl1Scenario());
    registry.add(tbl2Scenario());
    registry.add(tbl3Scenario());
    registry.add(fig09Scenario());
    registry.add(fig10Scenario());
    registry.add(fig13Scenario());
    registry.add(fig14Scenario());
    registry.add(fig15Scenario());
    registry.add(fig16Scenario());
    registry.add(fig17Scenario());
    registry.add(fig18Scenario());
    registry.add(fig21Scenario());
    registry.add(frontierScenario());
    registry.add(frontierXlScenario());
    registry.add(crossvalScenario());
}

} // namespace libra
