/**
 * @file
 * Pluggable outer-loop exploration strategies over a DesignSpace.
 *
 * Every way LIBRA can search a discrete design space implements one
 * interface:
 *
 *     explore(candidates, params, sweep) -> ExploreResult
 *
 * and registers itself in the process-wide ExploreRegistry under a
 * stable name, mirroring the SOLVER (StrategyRegistry) and BACKEND
 * (TimingBackendRegistry) layers:
 *
 *  - "exhaustive" (the default): every candidate runs at its full
 *    search budget in one sweep batch — bit-identical to the
 *    historical hand-enumerated scenarios, so golden figures and
 *    version-1 cache keys are untouched.
 *  - "prune": bound-based successive halving. Every candidate is
 *    ranked by a cheap screening pass (few starts, capped objective
 *    evaluations); only the surviving fraction of each objective
 *    stratum is promoted to the next round and, finally, to the
 *    full-budget optimization. Reaches the exhaustive winner with a
 *    fraction of the full-budget optimize() calls (bench/micro_explore
 *    tracks this in BENCH_explore.json).
 *
 * Study files select strategies with `EXPLORE <name>[,key=value...]`
 * and the CLI with `--explore` / `list-explorers`.
 *
 * Determinism contract (see docs/EXPLORE.md): a strategy must be a
 * pure function of (candidates, params, sweep results). All candidate
 * evaluation goes through the provided sweep function (which is the
 * deterministic, thread-count-independent runLibraSweep, optionally
 * wrapped with the study cache), rankings reduce in candidate-index
 * order with ties toward the lower index, and per-candidate RNG
 * streams come from each candidate's own search seed — so an
 * exploration is bit-identical at any thread count, fresh or cached.
 */

#ifndef LIBRA_EXPLORE_EXPLORE_HH
#define LIBRA_EXPLORE_EXPLORE_HH

#include <functional>
#include <string>
#include <vector>

#include "common/registry.hh"
#include "explore/design_space.hh"

namespace libra {

/** The default strategy: run every candidate at full budget. */
inline constexpr const char* kExhaustiveExploreName = "exhaustive";

/** The successive-halving screening strategy. */
inline constexpr const char* kPruneExploreName = "prune";

/** One declared strategy parameter with its default and legal range. */
struct ExploreParamSpec
{
    std::string key;
    double defaultValue = 0.0;
    double min = 0.0;
    double max = 0.0;

    /**
     * Reject fractional values. Integral parameters (round counts,
     * eval budgets) would otherwise truncate silently while their
     * fractional text still reaches the canonical spec — two tags for
     * one behavior, defeating the cache.
     */
    bool integer = false;
};

/** Batch evaluator handed to strategies (runLibraSweep, maybe cached). */
using ExploreSweepFn = std::function<std::vector<LibraReport>(
    const std::vector<LibraInputs>&)>;

/** One candidate's exploration outcome. */
struct ExploreOutcome
{
    Candidate candidate;
    LibraReport report;   ///< Full-budget, or the last screening pass.
    bool fullBudget = false;
    int roundsSurvived = 0; ///< Screening rounds this candidate passed.
};

/** Result of exploring one design space. */
struct ExploreResult
{
    /** Outcomes in candidate-index order, one per candidate. */
    std::vector<ExploreOutcome> outcomes;

    /**
     * Best full-budget candidate per objective stratum (objective
     * values are comparable within an objective, not across), in
     * first-seen candidate order; ties toward the lower index.
     */
    std::vector<std::size_t> winners;

    std::size_t fullRuns = 0;   ///< Candidates optimized at full budget.
    std::size_t screenRuns = 0; ///< Screening-pass optimizations.
};

/** One registered exploration strategy; see the file comment. */
class ExploreStrategy
{
  public:
    static constexpr const char* kRegistryKind = "exploration strategy";

    virtual ~ExploreStrategy() = default;

    /** Registry key, e.g. "prune". */
    virtual std::string name() const = 0;

    /** One-line description for `libra_cli list-explorers`. */
    virtual std::string description() const = 0;

    /** Declared parameters in canonical spec order (may be empty). */
    virtual std::vector<ExploreParamSpec> params() const { return {}; }

    /**
     * Explore @p candidates, evaluating only through @p sweep.
     * @p params is aligned with params(), defaults filled in.
     * Must return one outcome per candidate, in index order.
     */
    virtual ExploreResult explore(const std::vector<Candidate>& candidates,
                                  const std::vector<double>& params,
                                  const ExploreSweepFn& sweep) const = 0;
};

/** The EXPLORE layer's registry; its built-ins are listed above. */
using ExploreRegistry = Registry<ExploreStrategy>;
template <>
void ExploreRegistry::registerBuiltins(ExploreRegistry& registry);

/** A parsed `EXPLORE` spec: strategy plus its full parameter vector. */
struct ExploreSpec
{
    const ExploreStrategy* strategy = nullptr;
    std::vector<double> params; ///< Aligned with strategy->params().
};

/**
 * Parse an explore spec: `name[,key=value...]` with keys from the
 * strategy's declared parameters. An empty string selects exhaustive.
 * @throws FatalError on an unknown strategy, unknown/duplicate key,
 * or an out-of-range value.
 */
ExploreSpec parseExploreSpec(const std::string& text);

/**
 * Canonical text form of @p text: strategy name plus only the
 * non-default parameters, each rendered in shortest round-trip form,
 * in declared order — and "" for the default strategy with default
 * parameters. The canonical form is its own fixpoint; it is the
 * study-file serialization and the cache-key tag.
 * @throws FatalError on an invalid spec.
 */
std::string canonicalExploreSpec(const std::string& text);

/**
 * Run @p spec (canonical or raw; "" = exhaustive) over @p candidates
 * using @p sweep for every optimization batch.
 */
ExploreResult exploreCandidates(const std::vector<Candidate>& candidates,
                                const std::string& spec,
                                const ExploreSweepFn& sweep);

/**
 * Assemble the exhaustive result from already aligned full-budget
 * reports — the path the matrix runner uses when a design-space
 * scenario's candidates ran inside the shared batch.
 */
ExploreResult
exhaustiveResultFromReports(std::vector<Candidate> candidates,
                            const std::vector<LibraReport>& reports);

} // namespace libra

#endif // LIBRA_EXPLORE_EXPLORE_HH
