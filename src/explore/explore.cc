#include "explore/explore.hh"

#include <algorithm>
#include <cmath>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "solver/multistart.hh"

namespace libra {

namespace {

std::string
trimmed(const std::string& s)
{
    auto begin = s.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    auto end = s.find_last_not_of(" \t");
    return s.substr(begin, end - begin + 1);
}

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
            const std::vector<double>&,
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

// --- Prune (successive halving) ----------------------------------------

/** Parameter order defines the canonical spec order. */
enum PruneParam
{
    kKeep = 0,        ///< Surviving fraction per stratum per round.
    kRounds,          ///< Screening rounds before the full budget.
    kScreenEvals,     ///< Round-0 objective evaluations per start.
    kScreenStarts,    ///< Random starts besides the hint per screen.
    kNumPruneParams,
};

class PruneExplore : public ExploreStrategy
{
  public:
    std::string name() const override { return kPruneExploreName; }

    std::string
    description() const override
    {
        return "successive halving: rank candidates with cheap "
               "screening passes, promote the top fraction of each "
               "objective stratum to the full budget";
    }

    std::vector<ExploreParamSpec>
    params() const override
    {
        return {{"keep", 0.5, 1e-6, 1.0, false},
                {"rounds", 1.0, 1.0, 8.0, true},
                {"screen-evals", 120.0, 1.0, 1e9, true},
                {"screen-starts", 1.0, 0.0, 64.0, true}};
    }

    ExploreResult
    explore(const std::vector<Candidate>& candidates,
            const std::vector<double>& params,
            const ExploreSweepFn& sweep) const override
    {
        const double keep = params[kKeep];
        const int rounds = static_cast<int>(params[kRounds]);
        const long long screenEvals =
            static_cast<long long>(params[kScreenEvals]);
        const int screenStarts = static_cast<int>(params[kScreenStarts]);

        ExploreResult result;
        result.outcomes.reserve(candidates.size());
        for (const auto& c : candidates)
            result.outcomes.push_back({c, {}, false, 0});

        // Alive set, maintained in candidate-index order throughout so
        // every reduction below is order-deterministic.
        std::vector<std::size_t> alive(candidates.size());
        for (std::size_t i = 0; i < alive.size(); ++i)
            alive[i] = i;

        for (int round = 0; round < rounds; ++round) {
            // Screening budget doubles each round as the field narrows
            // (classic successive halving: total screening cost stays
            // roughly flat per round).
            const long long evals = screenEvals << round;
            std::vector<LibraInputs> batch;
            batch.reserve(alive.size());
            for (std::size_t i : alive) {
                LibraInputs p = candidates[i].inputs;
                p.config.search = screeningOptions(p.config.search,
                                                   screenStarts, evals);
                batch.push_back(std::move(p));
            }
            std::vector<LibraReport> reports = sweep(batch);
            result.screenRuns += batch.size();
            for (std::size_t k = 0; k < alive.size(); ++k)
                result.outcomes[alive[k]].report = reports[k];

            // Rank each objective stratum by screened objective value;
            // keep the top fraction (at least one). Sorting (value,
            // index) pairs keeps ties deterministic at the lower index.
            std::vector<std::size_t> next;
            for (OptimizationObjective obj :
                 objectiveStrata(result.outcomes)) {
                std::vector<std::pair<double, std::size_t>> ranked;
                for (std::size_t i : alive) {
                    if (candidates[i].objective == obj) {
                        ranked.emplace_back(
                            result.outcomes[i]
                                .report.optimized.objectiveValue,
                            i);
                    }
                }
                if (ranked.empty())
                    continue;
                std::sort(ranked.begin(), ranked.end());
                std::size_t kept = static_cast<std::size_t>(std::ceil(
                    static_cast<double>(ranked.size()) * keep));
                kept = std::max<std::size_t>(kept, 1);
                kept = std::min(kept, ranked.size());
                for (std::size_t k = 0; k < kept; ++k) {
                    next.push_back(ranked[k].second);
                    result.outcomes[ranked[k].second].roundsSurvived =
                        round + 1;
                }
            }
            std::sort(next.begin(), next.end());
            alive = std::move(next);
        }

        // Promote the survivors to their full search budget.
        std::vector<LibraInputs> finals;
        finals.reserve(alive.size());
        for (std::size_t i : alive)
            finals.push_back(candidates[i].inputs);
        std::vector<LibraReport> reports = sweep(finals);
        result.fullRuns += finals.size();
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
            {std::move(candidates[i]), reports[i], true, 0});
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

ExploreSpec
parseExploreSpec(const std::string& text)
{
    std::vector<std::string> tokens;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t comma = text.find(',', pos);
        if (comma == std::string::npos)
            comma = text.size();
        tokens.push_back(trimmed(text.substr(pos, comma - pos)));
        pos = comma + 1;
    }

    ExploreSpec spec;
    const std::string name =
        tokens.empty() || tokens[0].empty() ? kExhaustiveExploreName
                                            : tokens[0];
    spec.strategy = &ExploreRegistry::global().resolve(name);

    const std::vector<ExploreParamSpec> declared =
        spec.strategy->params();
    spec.params.reserve(declared.size());
    for (const auto& p : declared)
        spec.params.push_back(p.defaultValue);

    std::vector<bool> seen(declared.size(), false);
    for (std::size_t t = 1; t < tokens.size(); ++t) {
        const std::string& token = tokens[t];
        if (token.empty())
            fatal("empty parameter in explore spec '", text, "'");
        std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            fatal("explore parameter '", token,
                  "' is not key=value in spec '", text, "'");
        std::string key = trimmed(token.substr(0, eq));
        std::string valueText = trimmed(token.substr(eq + 1));
        std::size_t index = declared.size();
        for (std::size_t d = 0; d < declared.size(); ++d) {
            if (declared[d].key == key)
                index = d;
        }
        if (index == declared.size()) {
            std::string known;
            for (const auto& p : declared)
                known += known.empty() ? p.key : (", " + p.key);
            fatal("strategy '", name, "' has no parameter '", key,
                  "'", declared.empty()
                          ? ""
                          : (" (known: " + known + ")"));
        }
        if (seen[index])
            fatal("duplicate explore parameter '", key, "' in spec '",
                  text, "'");
        seen[index] = true;

        const ExploreParamSpec& p = declared[index];
        const std::string what = "explore parameter " + key;
        spec.params[index] =
            p.integer ? static_cast<double>(parseNumber<long long>(
                            valueText, static_cast<long long>(p.min),
                            static_cast<long long>(p.max), what))
                      : parseNumber(valueText, p.min, p.max, what);
    }
    return spec;
}

std::string
canonicalExploreSpec(const std::string& text)
{
    ExploreSpec spec = parseExploreSpec(text);
    const std::vector<ExploreParamSpec> declared =
        spec.strategy->params();
    std::string out;
    for (std::size_t i = 0; i < declared.size(); ++i) {
        if (spec.params[i] == declared[i].defaultValue)
            continue;
        out += ',';
        out += declared[i].key;
        out += '=';
        out += jsonNumberToString(spec.params[i]);
    }
    // The default strategy at default parameters canonicalizes to ""
    // (like the analytical BACKEND), keeping default cache keys and
    // serializations byte-identical to the pre-explore engine.
    if (out.empty() && spec.strategy->name() == kExhaustiveExploreName)
        return "";
    return spec.strategy->name() + out;
}

ExploreResult
exploreCandidates(const std::vector<Candidate>& candidates,
                  const std::string& spec,
                  const ExploreSweepFn& sweep)
{
    ExploreSpec parsed = parseExploreSpec(spec);
    ExploreResult result =
        parsed.strategy->explore(candidates, parsed.params, sweep);
    if (result.outcomes.size() != candidates.size())
        fatal("exploration strategy '", parsed.strategy->name(),
              "' returned ", result.outcomes.size(), " outcomes for ",
              candidates.size(), " candidates");
    return result;
}

} // namespace libra
