/**
 * @file
 * Scenario registry: every paper figure/table as a named, machine-
 * checkable study definition.
 *
 * A Scenario contributes two functions:
 *
 *  - build(): the optimization work, expressed as a vector of
 *    LibraInputs design points. The matrix runner concatenates the
 *    points of every selected scenario into ONE runLibraSweep batch
 *    (deduplicated by content hash, served from the result cache when
 *    enabled), so all expensive optimize() calls share the global
 *    thread pool and the cache. Scenarios that need no optimization
 *    (e.g. the cost-model table) return an empty vector.
 *  - format(points, reports): turns the scenario's aligned LibraReport
 *    slice into labeled rows of named numeric metrics plus summary
 *    metrics. Light post-processing (training-sim validation runs,
 *    cross-evaluation of estimates) is allowed here; anything costing
 *    an optimize() belongs in build().
 *
 * Rows carry (label, value) string pairs for identity and (metric,
 * double) pairs for the reproduced numbers — the representation the
 * JSON/CSV emitters and the golden-figure regression suite consume.
 */

#ifndef LIBRA_STUDY_SCENARIO_HH
#define LIBRA_STUDY_SCENARIO_HH

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/registry.hh"
#include "core/framework.hh"
#include "explore/explore.hh"

namespace libra {

/** One emitted row: identity labels plus named numeric metrics. */
struct ScenarioRow
{
    std::vector<std::pair<std::string, std::string>> labels;
    std::vector<std::pair<std::string, double>> metrics;

    ScenarioRow&
    label(std::string key, std::string value)
    {
        labels.emplace_back(std::move(key), std::move(value));
        return *this;
    }

    ScenarioRow&
    metric(std::string key, double value)
    {
        metrics.emplace_back(std::move(key), value);
        return *this;
    }
};

/** Formatted result of one scenario. */
struct ScenarioOutput
{
    std::vector<ScenarioRow> rows;

    /** Scenario-level aggregates (averages, maxima, claim checks). */
    std::vector<std::pair<std::string, double>> summary;

    /** Free-form annotation lines (claim-check text, ASCII timelines). */
    std::vector<std::string> notes;

    void
    summarize(std::string key, double value)
    {
        summary.emplace_back(std::move(key), value);
    }
};

/** A registered figure/table scenario. */
struct Scenario
{
    static constexpr const char* kRegistryKind = "scenario";

    std::string name;  ///< Registry key, e.g. "fig13".
    std::string title; ///< One-line description (banner text).

    /** Design points to optimize; may be empty. */
    std::function<std::vector<LibraInputs>()> build;

    /** Row formatter over the aligned reports of build()'s points. */
    std::function<ScenarioOutput(const std::vector<LibraInputs>&,
                                 const std::vector<LibraReport>&)>
        format;

    /**
     * Exploration form: a scenario declared as a DesignSpace instead
     * of a hand-built point list (mutually exclusive with
     * build/format). Under the default exhaustive strategy the
     * expanded candidates join the matrix runner's shared batch —
     * bit-identical to a hand-enumerated build() in the same order —
     * while a non-default `EXPLORE` strategy (the scenario's `explore`
     * default or the run-wide `--explore` override) searches the
     * space adaptively through the cache-aware sweep.
     */
    std::function<DesignSpace()> space;

    /** Row formatter over the exploration result (requires space). */
    std::function<ScenarioOutput(const ExploreResult&)> formatSpace;

    /**
     * Default exploration spec for this scenario ("" = exhaustive).
     * Only meaningful with `space`; `--explore` overrides it.
     */
    std::string explore;

    /** Registry::add's check: one of build/format or space/formatSpace
     *  (with a valid explore default). @throws FatalError. */
    void validate() const;
};

/** The scenario registry; global() holds the built-ins below. */
using ScenarioRegistry = Registry<Scenario>;
template <>
void ScenarioRegistry::registerBuiltins(ScenarioRegistry& registry);

/**
 * Register the built-in paper scenarios (fig09/10/13/14/15/16/17/18/21
 * and tbl1/2/3), the estimator-vs-simulation `crossval` study, and the
 * `explore-frontier` design-space search into @p registry. Called by
 * ScenarioRegistry::global().
 */
void registerBuiltinScenarios(ScenarioRegistry& registry);

/**
 * The scenarios whose headline metrics the golden-figure regression
 * suite pins (Fig. 13 speedups, Fig. 14 perf-per-cost, Table I cost
 * rows, Fig. 10 utilization, and — since the explore-layer refactor —
 * the Fig. 16 and Fig. 21 rows, whose golden files were generated
 * from the pre-refactor hand enumeration).
 */
const std::vector<std::string>& goldenScenarioNames();

/**
 * Expand scenario name groups against the registry: "all" inlines
 * every registered scenario, "golden" inlines goldenScenarioNames(),
 * anything else passes through verbatim (validation happens in
 * runScenarioMatrix). Shared by the CLI and the serve protocol so a
 * served request resolves groups exactly like the one-shot command.
 * @throws FatalError naming the first scenario that appears twice
 *         after expansion, so a request cannot multiply its own work.
 */
std::vector<std::string>
expandScenarioGroups(const std::vector<std::string>& names);

/**
 * The paper's 100-1,000 GB/s per-NPU budget sweep (Figs. 13-16). The
 * single source of truth for the evaluation grid — the remaining
 * standalone benches (fig19/fig20/ablations) forward to it via
 * bench_util.hh, so benches and scenarios can never drift apart.
 */
const std::vector<double>& paperBwSweep();

/** Harness-sized search options (deterministic, starts = 3). */
MultistartOptions paperSearchOptions();

} // namespace libra

#endif // LIBRA_STUDY_SCENARIO_HH
