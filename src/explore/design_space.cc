#include "explore/design_space.hh"

#include <map>
#include <utility>

#include "common/logging.hh"
#include "topology/network.hh"

namespace libra {

namespace {

void
validateSpace(const DesignSpace& space)
{
    if (space.topologies.empty())
        fatal("design space has no topology axis values");
    if (space.workloads.empty())
        fatal("design space has no workload axis values");
    if (space.budgets.empty())
        fatal("design space has no budget axis values");
    if (space.objectives.empty())
        fatal("design space has no objective axis values");
    for (const auto& w : space.workloads) {
        if (!w.targets)
            fatal("design-space workload variant '", w.label,
                  "' has no target builder");
    }
}

/** Target lists built so far in one call, by (workload choice, NPUs). */
using TargetMemo =
    std::map<std::pair<std::size_t, long>, std::vector<TargetWorkload>>;

/** Candidate @p index (in range), its targets from @p memo or built
 *  into it: the one path behind candidateAt and expandDesignSpace. */
Candidate
materialize(const DesignSpace& space, std::size_t index, TargetMemo& memo)
{
    // Mixed-radix decode of the fixed axis order: objectives vary
    // fastest, then budgets, costs, workloads, topologies.
    std::size_t rest = index;
    const std::size_t nObj = space.objectives.size();
    const std::size_t nBud = space.budgets.size();
    const std::size_t nCost = space.costs.empty() ? 1 : space.costs.size();
    const std::size_t nWl = space.workloads.size();
    std::size_t iObj = rest % nObj;
    rest /= nObj;
    std::size_t iBud = rest % nBud;
    rest /= nBud;
    std::size_t iCost = rest % nCost;
    rest /= nCost;
    std::size_t iWl = rest % nWl;
    rest /= nWl;
    std::size_t iTopo = rest;

    const TopologyChoice& topo = space.topologies[iTopo];
    const WorkloadChoice& wl = space.workloads[iWl];

    Candidate c;
    c.index = index;
    c.topology = topo.label;
    c.workload = wl.label;
    c.budget = space.budgets[iBud];
    c.objective = space.objectives[iObj];

    Network net = Network::parse(topo.shape);
    c.inputs.networkShape = net.name();
    auto [slot, fresh] = memo.try_emplace({iWl, net.npus()});
    if (fresh)
        slot->second = wl.targets(net.npus());
    c.inputs.targets = slot->second;
    c.inputs.normalizeTargetWeights = wl.normalizeWeights;
    if (!space.costs.empty()) {
        c.cost = space.costs[iCost].label;
        c.inputs.costModel = space.costs[iCost].model;
    }
    c.inputs.config.objective = c.objective;
    c.inputs.config.totalBw = c.budget;
    c.inputs.config.search = space.search;
    c.inputs.config.estimator = space.estimator;
    return c;
}

} // namespace

std::size_t
candidateCount(const DesignSpace& space)
{
    validateSpace(space);
    std::size_t costs = space.costs.empty() ? 1 : space.costs.size();
    return space.topologies.size() * space.workloads.size() * costs *
           space.budgets.size() * space.objectives.size();
}

Candidate
candidateAt(const DesignSpace& space, std::size_t index)
{
    const std::size_t count = candidateCount(space);
    if (index >= count)
        fatal("design-space candidate index ", index,
              " out of range (", count, " candidates)");
    TargetMemo memo;
    return materialize(space, index, memo);
}

std::vector<Candidate>
expandDesignSpace(const DesignSpace& space)
{
    std::vector<Candidate> out;
    const std::size_t count = candidateCount(space);
    out.reserve(count);
    TargetMemo memo;
    for (std::size_t i = 0; i < count; ++i)
        out.push_back(materialize(space, i, memo));
    return out;
}

} // namespace libra
