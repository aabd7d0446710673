/**
 * @file
 * Tests for the design-space exploration layer: lazy expansion order
 * and labels, one target build per (workload variant, NPU count),
 * explore-spec parsing/canonicalization, the registry, the prune
 * strategy's determinism and efficiency contracts, the matrix
 * integration (cache round-trip, thread-count bit-identity), and the
 * pin that the exhaustive expansion of the refactored paper scenarios
 * reproduces the historical hand enumeration point for point.
 */

#include <filesystem>
#include <map>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "explore/explore.hh"
#include "study/cache.hh"
#include "study/matrix.hh"
#include "study/scenario_util.hh"

namespace libra {
namespace {

/** A cheap two-topology, two-budget PerfOpt space. */
DesignSpace
miniSpace()
{
    DesignSpace space;
    space.topologies = {{"2D-16", "SW(4)_RI(4)"},
                        {"2D-32", "FC(4)_SW(8)"}};
    space.workloads.push_back(
        {"ResNet-50",
         [](long npus) {
             return std::vector<TargetWorkload>{
                 {wl::resnet50(npus), 1.0}};
         },
         false});
    space.budgets = {200.0, 400.0};
    space.objectives = {OptimizationObjective::PerfOpt};
    space.search.starts = 2;
    return space;
}

// --- Design-space expansion --------------------------------------------

TEST(DesignSpace, ExpandsInDocumentedOrderWithLabels)
{
    DesignSpace space = miniSpace();
    space.objectives.push_back(OptimizationObjective::PerfPerCostOpt);
    ASSERT_EQ(candidateCount(space), 8u);

    std::vector<Candidate> all = expandDesignSpace(space);
    ASSERT_EQ(all.size(), 8u);
    // Objectives fastest, then budgets, topologies slowest.
    EXPECT_EQ(all[0].topology, "2D-16");
    EXPECT_EQ(all[0].budget, 200.0);
    EXPECT_EQ(all[0].objective, OptimizationObjective::PerfOpt);
    EXPECT_EQ(all[1].objective,
              OptimizationObjective::PerfPerCostOpt);
    EXPECT_EQ(all[2].budget, 400.0);
    EXPECT_EQ(all[4].topology, "2D-32");
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].index, i);
        EXPECT_EQ(all[i].workload, "ResNet-50");
        EXPECT_EQ(all[i].cost, ""); // No cost axis: default model.
        EXPECT_EQ(all[i].inputs.config.totalBw, all[i].budget);
        EXPECT_EQ(all[i].inputs.config.search.starts, 2);
    }
    // Shapes canonicalize through Network::parse.
    EXPECT_EQ(all[0].inputs.networkShape,
              Network::parse("SW(4)_RI(4)").name());

    // Lazy indexing materializes the same candidate.
    Candidate c5 = candidateAt(space, 5);
    EXPECT_EQ(c5.topology, all[5].topology);
    EXPECT_EQ(canonicalStudyKey(c5.inputs),
              canonicalStudyKey(all[5].inputs));
    EXPECT_THROW(candidateAt(space, 8), FatalError);
}

TEST(DesignSpace, ExpansionBuildsEachTargetListOncePerNpuCount)
{
    DesignSpace space = miniSpace();
    // Two shapes share 16 NPUs, so three topologies give two NPU counts.
    space.topologies.insert(space.topologies.begin() + 1,
                            {"2D-16b", "RI(4)_SW(4)"});
    space.objectives.push_back(OptimizationObjective::PerfPerCostOpt);
    std::map<std::pair<std::string, long>, int> calls;
    space.workloads.clear();
    for (std::string name : {"ResNet-50", "DLRM"}) {
        space.workloads.push_back(
            {name,
             [&calls, name](long npus) {
                 ++calls[{name, npus}];
                 Workload w = name == "DLRM" ? wl::dlrm(npus)
                                             : wl::resnet50(npus);
                 return std::vector<TargetWorkload>{
                     {std::move(w), 1.0}};
             },
             false});
    }

    std::vector<Candidate> all = expandDesignSpace(space);
    ASSERT_EQ(all.size(), 3u * 2u * 2u * 2u);
    EXPECT_EQ(calls, (std::map<std::pair<std::string, long>, int>{
                         {{"DLRM", 16}, 1},
                         {{"DLRM", 32}, 1},
                         {{"ResNet-50", 16}, 1},
                         {{"ResNet-50", 32}, 1}}));
    for (const Candidate& c : all) {
        long npus = Network::parse(c.inputs.networkShape).npus();
        ASSERT_EQ(c.inputs.targets.size(), 1u);
        EXPECT_TRUE(c.inputs.targets[0].workload ==
                    (c.workload == "DLRM" ? wl::dlrm(npus)
                                          : wl::resnet50(npus)));
    }

    // Lazy indexing builds only the one candidate's targets.
    calls.clear();
    EXPECT_EQ(candidateAt(space, 5).workload, "DLRM");
    EXPECT_EQ(calls, (std::map<std::pair<std::string, long>, int>{
                         {{"DLRM", 16}, 1}}));
}

TEST(DesignSpace, ExpansionEqualsLazyIndexingForEveryScenario)
{
    for (const std::string& name : ScenarioRegistry::global().names()) {
        const Scenario* s = ScenarioRegistry::global().find(name);
        if (!s->space)
            continue;
        DesignSpace space = s->space();
        std::vector<Candidate> all = expandDesignSpace(space);
        ASSERT_EQ(all.size(), candidateCount(space)) << name;
        for (std::size_t i = 0; i < all.size(); ++i) {
            Candidate lazy = candidateAt(space, i);
            EXPECT_EQ(canonicalStudyKey(all[i].inputs),
                      canonicalStudyKey(lazy.inputs))
                << name << " candidate " << i;
            ASSERT_EQ(all[i].inputs.targets.size(),
                      lazy.inputs.targets.size());
            for (std::size_t t = 0; t < lazy.inputs.targets.size(); ++t) {
                EXPECT_TRUE(all[i].inputs.targets[t].workload ==
                            lazy.inputs.targets[t].workload)
                    << name << " candidate " << i << " target " << t;
                EXPECT_EQ(all[i].inputs.targets[t].weight,
                          lazy.inputs.targets[t].weight);
            }
        }
    }
}

TEST(DesignSpace, RejectsEmptyRequiredAxes)
{
    DesignSpace space = miniSpace();
    space.budgets.clear();
    EXPECT_THROW(candidateCount(space), FatalError);

    DesignSpace noTopo = miniSpace();
    noTopo.topologies.clear();
    EXPECT_THROW(expandDesignSpace(noTopo), FatalError);

    DesignSpace noBuilder = miniSpace();
    noBuilder.workloads[0].targets = nullptr;
    EXPECT_THROW(candidateCount(noBuilder), FatalError);
}

// --- Spec parsing and the registry -------------------------------------

TEST(ExploreSpec, CanonicalizationNormalizesDefaults)
{
    EXPECT_EQ(canonicalExploreSpec(""), "");
    EXPECT_EQ(canonicalExploreSpec("exhaustive"), "");
    EXPECT_EQ(canonicalExploreSpec("prune"), "prune");
    // The canonical form is a fixpoint.
    EXPECT_EQ(canonicalExploreSpec(canonicalExploreSpec("prune")),
              "prune");
}

TEST(ExploreSpec, RejectsMalformedSpecs)
{
    EXPECT_THROW(canonicalExploreSpec("warp-drive"), FatalError);
    // Strategies take no parameters: a spec is a name and nothing else.
    EXPECT_THROW(canonicalExploreSpec("prune,keep=0.25"), FatalError);
    EXPECT_THROW(canonicalExploreSpec("prune,rounds=2"), FatalError);
    EXPECT_THROW(canonicalExploreSpec("exhaustive,keep=0.5"),
                 FatalError);
    EXPECT_THROW(canonicalExploreSpec(" prune"), FatalError);
}

TEST(ExploreRegistry, BuiltinsRegisteredAndDuplicatesRejected)
{
    ExploreRegistry& registry = ExploreRegistry::global();
    EXPECT_NE(registry.find(kExhaustiveExploreName), nullptr);
    EXPECT_NE(registry.find(kPruneExploreName), nullptr);
    EXPECT_EQ(registry.find("no-such-strategy"), nullptr);
    EXPECT_EQ(registry.names()[0], kExhaustiveExploreName);

    class Dup : public ExploreStrategy
    {
        std::string name() const override { return "prune"; }
        std::string description() const override { return ""; }
        ExploreResult
        explore(const std::vector<Candidate>&,
                const ExploreSweepFn&) const override
        {
            return {};
        }
    };
    EXPECT_THROW(registry.add(std::make_unique<Dup>()), FatalError);
}

// --- Strategy behavior -------------------------------------------------

TEST(ExploreStrategies, PruneFindsExhaustiveWinnerWithFewerFullRuns)
{
    std::vector<Candidate> candidates =
        expandDesignSpace(miniSpace());

    std::size_t optimizeCalls = 0;
    ExploreSweepFn sweep = [&](const std::vector<LibraInputs>& batch) {
        optimizeCalls += batch.size();
        return runLibraSweep(batch);
    };

    ExploreResult exhaustive = exploreCandidates(candidates, "", sweep);
    std::size_t exhaustiveCalls = optimizeCalls;
    ASSERT_EQ(exhaustive.outcomes.size(), candidates.size());
    EXPECT_EQ(exhaustive.fullRuns, candidates.size());
    EXPECT_EQ(exhaustive.screenRuns, 0u);
    ASSERT_EQ(exhaustive.winners.size(), 1u); // One objective stratum.
    for (const auto& o : exhaustive.outcomes)
        EXPECT_TRUE(o.fullBudget);

    optimizeCalls = 0;
    ExploreResult prune =
        exploreCandidates(candidates, "prune", sweep);
    ASSERT_EQ(prune.outcomes.size(), candidates.size());
    EXPECT_LT(prune.fullRuns, exhaustive.fullRuns);
    EXPECT_EQ(prune.screenRuns, candidates.size());
    ASSERT_EQ(prune.winners.size(), 1u);
    EXPECT_EQ(prune.winners[0], exhaustive.winners[0]);
    EXPECT_EQ(prune.outcomes[prune.winners[0]]
                  .report.optimized.bw,
              exhaustive.outcomes[exhaustive.winners[0]]
                  .report.optimized.bw);
    // Full-budget survivors carry full-budget (= exhaustive) reports.
    for (const auto& o : prune.outcomes) {
        if (!o.fullBudget)
            continue;
        EXPECT_EQ(o.report.optimized.bw,
                  exhaustive.outcomes[o.candidate.index]
                      .report.optimized.bw);
    }
    EXPECT_LT(optimizeCalls, 2 * exhaustiveCalls);
}

TEST(ExploreStrategies, PrunePromotesTheBetterHalfOfEachStratum)
{
    DesignSpace space = miniSpace();
    space.objectives.push_back(OptimizationObjective::PerfPerCostOpt);
    std::vector<Candidate> candidates = expandDesignSpace(space);
    ExploreSweepFn sweep = [](const std::vector<LibraInputs>& batch) {
        return runLibraSweep(batch);
    };
    ExploreResult r = exploreCandidates(candidates, "prune", sweep);
    // Each objective stratum keeps 2 of its 4 candidates.
    ASSERT_EQ(candidates.size(), 8u);
    EXPECT_EQ(r.screenRuns, 8u);
    EXPECT_EQ(r.fullRuns, 4u);
    EXPECT_EQ(r.winners.size(), 2u);
}

// --- Matrix integration ------------------------------------------------

/** A design-space scenario registered once per process. */
const char*
miniSpaceScenarioName()
{
    static const char* name = [] {
        Scenario s;
        s.name = "test-mini-space";
        s.title = "explore-test design-space scenario";
        s.space = miniSpace;
        s.formatSpace = [](const ExploreResult& r) {
            ScenarioOutput out;
            for (const ExploreOutcome& o : r.outcomes) {
                ScenarioRow row;
                row.label("net", o.candidate.topology);
                row.label("bw", bwLabel(o.candidate.budget));
                row.label("stage",
                          o.fullBudget ? "full" : "screened");
                row.metric("time", o.report.optimized.weightedTime);
                row.metric("cost", o.report.optimized.cost);
                out.rows.push_back(std::move(row));
            }
            out.summarize("full_runs",
                          static_cast<double>(r.fullRuns));
            out.summarize("winner",
                          static_cast<double>(r.winners.at(0)));
            return out;
        };
        ScenarioRegistry::global().add(std::move(s));
        return "test-mini-space";
    }();
    return name;
}

TEST(ExploreMatrix, ExhaustiveSpaceScenarioRunsInSharedBatch)
{
    MatrixResult result =
        runScenarioMatrix({miniSpaceScenarioName()});
    ASSERT_EQ(result.scenarios.size(), 1u);
    EXPECT_EQ(result.points, 4u);
    EXPECT_EQ(result.computed, 4u);
    const auto& rows = result.scenarios[0].output.rows;
    ASSERT_EQ(rows.size(), 4u);
    for (const auto& row : rows)
        EXPECT_EQ(row.labels[2].second, "full");
}

TEST(ExploreMatrix, PruneIsBitIdenticalAtAnyThreadCount)
{
    MatrixOptions options;
    options.exploreSpec = "prune";
    std::string dumps[3];
    std::size_t threadCounts[3] = {1, 2, 8};
    for (int i = 0; i < 3; ++i) {
        ThreadPool::setGlobalThreads(threadCounts[i]);
        dumps[i] = matrixToJson(runScenarioMatrix(
                                    {miniSpaceScenarioName()}, options))
                       .dump(1);
    }
    ThreadPool::setGlobalThreads(4);
    EXPECT_EQ(dumps[0], dumps[1]);
    EXPECT_EQ(dumps[0], dumps[2]);
    // And prune actually pruned: some row is only screened.
    EXPECT_NE(dumps[0].find("screened"), std::string::npos);
}

TEST(ExploreMatrix, PruneCacheRoundTripIsByteIdentical)
{
    std::string dir = testing::TempDir() + "libra-cache-explore";
    std::filesystem::remove_all(dir);
    MatrixOptions options;
    options.cacheDir = dir;
    options.exploreSpec = "prune";

    MatrixResult first =
        runScenarioMatrix({miniSpaceScenarioName()}, options);
    EXPECT_GT(first.computed, 0u);
    MatrixResult second =
        runScenarioMatrix({miniSpaceScenarioName()}, options);
    EXPECT_EQ(second.computed, 0u);
    EXPECT_EQ(second.fromCache, second.points);
    EXPECT_EQ(matrixToJson(first).dump(1),
              matrixToJson(second).dump(1));

    // Exhaustive must not be served from prune's entries: its
    // candidates carry no explore tag, so every point recomputes.
    MatrixOptions exhaustive;
    exhaustive.cacheDir = dir;
    MatrixResult third =
        runScenarioMatrix({miniSpaceScenarioName()}, exhaustive);
    EXPECT_EQ(third.computed, third.unique);
    std::filesystem::remove_all(dir);
}

TEST(ExploreMatrix, OverrideLeavesNonSpaceScenariosAlone)
{
    MatrixOptions options;
    options.exploreSpec = "prune";
    MatrixResult withOverride = runScenarioMatrix({"tbl1"}, options);
    MatrixResult plain = runScenarioMatrix({"tbl1"});
    EXPECT_EQ(matrixToJson(withOverride).dump(1),
              matrixToJson(plain).dump(1));
}

TEST(ExploreMatrix, RejectsUnknownOverrideSpec)
{
    MatrixOptions options;
    options.exploreSpec = "warp-drive";
    EXPECT_THROW(runScenarioMatrix({miniSpaceScenarioName()}, options),
                 FatalError);
}

// --- The refactored paper scenarios ------------------------------------

/**
 * The historical hand enumerations of fig16 and fig21, exactly as
 * their build() lambdas wrote them before the design-space refactor.
 * The exhaustive expansion must reproduce them point for point (same
 * canonical study keys in the same order), which — together with the
 * formatter's label pin in tests/golden/fig{16,21}.json — guarantees
 * the refactor changed no emitted byte.
 */
std::vector<LibraInputs>
handEnumeratedFig16()
{
    std::vector<LibraInputs> points;
    for (const auto& [label, net] : fig16Nets()) {
        for (double bw : paperBwSweep()) {
            points.push_back(makeStudyPoint(
                net, wl::msft1T(net.npus()),
                OptimizationObjective::PerfOpt, bw));
            points.push_back(makeStudyPoint(
                net, wl::msft1T(net.npus()),
                OptimizationObjective::PerfPerCostOpt, bw));
        }
    }
    return points;
}

std::vector<LibraInputs>
handEnumeratedFig21()
{
    Network net = topo::fourD4K();
    std::vector<LibraInputs> points;
    for (long tp : fig21TpDegrees()) {
        points.push_back(makeStudyPoint(
            net, wl::msft1TWithStrategy(tp, net.npus() / tp),
            OptimizationObjective::PerfOpt, 1000.0));
    }
    return points;
}

void
expectExpansionMatches(const char* scenarioName,
                       const std::vector<LibraInputs>& expected)
{
    const Scenario* s = ScenarioRegistry::global().find(scenarioName);
    ASSERT_NE(s, nullptr);
    ASSERT_TRUE(static_cast<bool>(s->space));
    std::vector<Candidate> candidates = expandDesignSpace(s->space());
    ASSERT_EQ(candidates.size(), expected.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        EXPECT_EQ(canonicalStudyKey(candidates[i].inputs),
                  canonicalStudyKey(expected[i]))
            << scenarioName << " candidate " << i;
    }
}

TEST(ExploreScenarios, ExhaustiveExpansionMatchesHandEnumeration)
{
    expectExpansionMatches("fig16", handEnumeratedFig16());
    expectExpansionMatches("fig21", handEnumeratedFig21());
}

TEST(ExploreScenarios, FrontierSpaceIsLargerThanAnyPaperFigure)
{
    const Scenario* s =
        ScenarioRegistry::global().find("explore-frontier");
    ASSERT_NE(s, nullptr);
    DesignSpace space = s->space();
    // Strictly larger on every explored axis than fig16 (the largest
    // paper exploration): more shapes, more budgets, both objectives.
    EXPECT_GT(space.topologies.size(), fig16Nets().size());
    EXPECT_GT(space.budgets.size(), paperBwSweep().size());
    EXPECT_EQ(space.objectives.size(), 2u);
    EXPECT_GT(candidateCount(space), 24u);
}

} // namespace
} // namespace libra
