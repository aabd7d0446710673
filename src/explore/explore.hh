/**
 * @file
 * Pluggable outer-loop exploration strategies over a DesignSpace.
 *
 * Every way LIBRA can search a discrete design space implements one
 * interface:
 *
 *     explore(candidates, sweep) -> ExploreResult
 *
 * and registers itself in the process-wide ExploreRegistry under a
 * stable name, mirroring the BACKEND (TimingBackendRegistry) layer:
 *
 *  - "exhaustive" (the default): every candidate runs at its full
 *    search budget in one sweep batch — bit-identical to the
 *    historical hand-enumerated scenarios, so golden figures and
 *    version-1 cache keys are untouched.
 *  - "prune": one screening round, then the full budget. Every
 *    candidate is ranked by a cheap screening pass (1 random start
 *    besides the hint, 120 objective evaluations per start); the
 *    better half of each objective stratum is promoted to the
 *    full-budget optimization. Reaches the exhaustive winner with a
 *    fraction of the full-budget optimize() calls. Its screen is
 *    fixed: prune takes no parameters.
 *
 * Study files select strategies with `EXPLORE <name>` and the CLI with
 * `--explore` / `list-explorers`.
 *
 * Determinism contract (see docs/EXPLORE.md): a strategy must be a
 * pure function of (candidates, sweep results). All candidate
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

/** Batch evaluator handed to strategies (runLibraSweep, maybe cached). */
using ExploreSweepFn = std::function<std::vector<LibraReport>(
    const std::vector<LibraInputs>&)>;

/** One candidate's exploration outcome. */
struct ExploreOutcome
{
    Candidate candidate;
    LibraReport report;   ///< Full-budget, or the screening pass.
    bool fullBudget = false;
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

    /**
     * Explore @p candidates, evaluating only through @p sweep.
     * Must return one outcome per candidate, in index order.
     */
    virtual ExploreResult explore(const std::vector<Candidate>& candidates,
                                  const ExploreSweepFn& sweep) const = 0;
};

/** The EXPLORE layer's registry; its built-ins are listed above. */
using ExploreRegistry = Registry<ExploreStrategy>;
template <>
void ExploreRegistry::registerBuiltins(ExploreRegistry& registry);

/**
 * Canonical text form of the explore spec @p text (a registered
 * strategy name; "" selects exhaustive): the name itself, and "" for
 * the default exhaustive strategy. The canonical form is its own
 * fixpoint; it is the study-file serialization and the cache-key tag.
 * @throws FatalError naming @p text when no strategy has that name.
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
