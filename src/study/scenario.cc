#include "study/scenario.hh"

#include <set>

#include "common/logging.hh"

namespace libra {

template <>
void
ScenarioRegistry::registerBuiltins(ScenarioRegistry& registry)
{
    registerBuiltinScenarios(registry);
}

void
Scenario::validate() const
{
    if (space) {
        if (build || format)
            fatal("scenario '", name, "' declares both a design space "
                  "and a hand-built point list");
        if (!formatSpace)
            fatal("scenario '", name,
                  "' has a design space but no formatSpace");
        canonicalExploreSpec(explore); // Validate.
    } else if (!format) {
        fatal("scenario '", name, "' has no formatter");
    }
}

std::vector<std::string>
expandScenarioGroups(const std::vector<std::string>& names)
{
    std::vector<std::string> out;
    std::set<std::string> seen;
    auto push = [&](const std::string& name) {
        if (!seen.insert(name).second)
            fatal("scenario '", name, "' is listed more than once");
        out.push_back(name);
    };
    for (const auto& name : names) {
        if (name == "all") {
            for (const auto& n : ScenarioRegistry::global().names())
                push(n);
        } else if (name == "golden") {
            for (const auto& n : goldenScenarioNames())
                push(n);
        } else {
            push(name);
        }
    }
    return out;
}

const std::vector<std::string>&
goldenScenarioNames()
{
    // fig16/fig21 joined the set when they moved onto the explore
    // layer: their golden files were generated from the pre-refactor
    // hand enumeration, so the suite pins that the exhaustive
    // design-space expansion reproduces the historical rows exactly.
    static const std::vector<std::string> names{
        "tbl1", "fig10", "fig13", "fig14", "fig16", "fig21"};
    return names;
}

} // namespace libra
