#include "explore/explore.hh"

#include <algorithm>

#include "common/logging.hh"

namespace libra {

namespace {

/**
 * Objective strata in first-seen candidate order: objective values are
 * comparable within one objective (same figure of merit), never across.
 */
std::vector<OptimizationObjective>
objectiveStrata(const std::vector<ExploreOutcome>& outcomes)
{
    std::vector<OptimizationObjective> strata;
    for (const auto& o : outcomes) {
        if (std::find(strata.begin(), strata.end(),
                      o.candidate.objective) == strata.end()) {
            strata.push_back(o.candidate.objective);
        }
    }
    return strata;
}

/** Best full-budget outcome per stratum; ties toward the lower index. */
std::vector<std::size_t>
computeWinners(const std::vector<ExploreOutcome>& outcomes)
{
    std::vector<std::size_t> winners;
    for (OptimizationObjective obj : objectiveStrata(outcomes)) {
        std::size_t best = outcomes.size();
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (outcomes[i].candidate.objective != obj ||
                !outcomes[i].fullBudget) {
                continue;
            }
            if (best == outcomes.size() ||
                outcomes[i].report.optimized.objectiveValue <
                    outcomes[best].report.optimized.objectiveValue) {
                best = i;
            }
        }
        if (best < outcomes.size())
            winners.push_back(best);
    }
    return winners;
}

// --- Exhaustive --------------------------------------------------------

class ExhaustiveExplore : public ExploreStrategy
{
  public:
    std::string name() const override { return kExhaustiveExploreName; }

    std::string
    description() const override
    {
        return "run every candidate at full budget in one batch (the "
               "default; bit-identical to hand enumeration)";
    }

    ExploreResult
    explore(const std::vector<Candidate>& candidates,
            const ExploreSweepFn& sweep) const override
    {
        std::vector<LibraInputs> batch;
        batch.reserve(candidates.size());
        for (const auto& c : candidates)
            batch.push_back(c.inputs);
        std::vector<LibraReport> reports = sweep(batch);
        return exhaustiveResultFromReports(candidates, reports);
    }
};

// --- Prune (one screening round) ---------------------------------------

/** Random starts besides the hint in the screening pass. */
constexpr int kScreenStarts = 1;

/** Objective evaluations per start in the screening pass. */
constexpr long long kScreenEvals = 120;

class PruneExplore : public ExploreStrategy
{
  public:
    std::string name() const override { return kPruneExploreName; }

    std::string
    description() const override
    {
        return "rank candidates with one cheap screening pass, promote "
               "the better half of each objective stratum to the full "
               "budget";
    }

    ExploreResult
    explore(const std::vector<Candidate>& candidates,
            const ExploreSweepFn& sweep) const override
    {
        ExploreResult result;
        result.outcomes.reserve(candidates.size());
        for (const auto& c : candidates)
            result.outcomes.push_back({c, {}, false});

        // Screen every candidate at a fraction of its search budget,
        // with the seed unchanged, so a screen explores a prefix of
        // the same deterministic search the full budget would. The
        // block frees the screening inputs before the full-budget
        // sweep runs.
        {
            std::vector<LibraInputs> batch;
            batch.reserve(candidates.size());
            for (const auto& c : candidates) {
                LibraInputs p = c.inputs;
                p.config.search.starts = kScreenStarts;
                p.config.search.maxEvalsPerStart = kScreenEvals;
                batch.push_back(std::move(p));
            }
            std::vector<LibraReport> screened = sweep(batch);
            result.screenRuns = batch.size();
            for (std::size_t i = 0; i < candidates.size(); ++i)
                result.outcomes[i].report = std::move(screened[i]);
        }

        // Rank each objective stratum by screened objective value and
        // keep ceil(n / 2), which is at least one and at most n.
        // Sorting (value, index) pairs keeps ties deterministic at the
        // lower index; the survivors go back into index order.
        std::vector<std::size_t> alive;
        for (OptimizationObjective obj : objectiveStrata(result.outcomes)) {
            std::vector<std::pair<double, std::size_t>> ranked;
            for (std::size_t i = 0; i < candidates.size(); ++i) {
                if (candidates[i].objective == obj) {
                    ranked.emplace_back(
                        result.outcomes[i].report.optimized.objectiveValue,
                        i);
                }
            }
            std::sort(ranked.begin(), ranked.end());
            const std::size_t kept = (ranked.size() + 1) / 2;
            for (std::size_t k = 0; k < kept; ++k)
                alive.push_back(ranked[k].second);
        }
        std::sort(alive.begin(), alive.end());

        // Promote the survivors to their full search budget.
        std::vector<LibraInputs> finals;
        finals.reserve(alive.size());
        for (std::size_t i : alive)
            finals.push_back(candidates[i].inputs);
        std::vector<LibraReport> reports = sweep(finals);
        result.fullRuns = finals.size();
        for (std::size_t k = 0; k < alive.size(); ++k) {
            result.outcomes[alive[k]].report = reports[k];
            result.outcomes[alive[k]].fullBudget = true;
        }

        result.winners = computeWinners(result.outcomes);
        return result;
    }
};

} // namespace

ExploreResult
exhaustiveResultFromReports(std::vector<Candidate> candidates,
                            const std::vector<LibraReport>& reports)
{
    if (candidates.size() != reports.size())
        fatal("exhaustive exploration expects one report per candidate "
              "(got ", reports.size(), " for ", candidates.size(), ")");
    ExploreResult result;
    result.outcomes.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        result.outcomes.push_back(
            {std::move(candidates[i]), reports[i], true});
    }
    result.fullRuns = result.outcomes.size();
    result.winners = computeWinners(result.outcomes);
    return result;
}

template <>
void
ExploreRegistry::registerBuiltins(ExploreRegistry& registry)
{
    registry.add(std::make_unique<ExhaustiveExplore>());
    registry.add(std::make_unique<PruneExplore>());
}

namespace {

/** The strategy @p text names; "" selects exhaustive. */
const ExploreStrategy&
exploreStrategy(const std::string& text)
{
    return ExploreRegistry::global().resolve(
        text.empty() ? kExhaustiveExploreName : text);
}

} // namespace

std::string
canonicalExploreSpec(const std::string& text)
{
    // The default strategy canonicalizes to "" (like the analytical
    // BACKEND), keeping default cache keys and serializations
    // byte-identical to the pre-explore engine.
    std::string name = exploreStrategy(text).name();
    return name == kExhaustiveExploreName ? "" : name;
}

ExploreResult
exploreCandidates(const std::vector<Candidate>& candidates,
                  const std::string& spec,
                  const ExploreSweepFn& sweep)
{
    const ExploreStrategy& strategy = exploreStrategy(spec);
    ExploreResult result = strategy.explore(candidates, sweep);
    if (result.outcomes.size() != candidates.size())
        fatal("exploration strategy '", strategy.name(), "' returned ",
              result.outcomes.size(), " outcomes for ",
              candidates.size(), " candidates");
    return result;
}

} // namespace libra
