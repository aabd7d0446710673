/**
 * @file
 * Shared helpers for scenario definitions: the point factory, label
 * formatting, and the per-figure network/workload lists.
 *
 * These used to live as near-identical clones inside the anonymous
 * namespace of scenarios.cc (and, for the BW sweep, bench_util.hh).
 * One definition here keeps scenario builders, design-space
 * declarations, formatters, tests, and benches from drifting apart —
 * the fig16 candidate grid and the fig16 golden rows are provably the
 * same list because both come from fig16Nets().
 */

#ifndef LIBRA_STUDY_SCENARIO_UTIL_HH
#define LIBRA_STUDY_SCENARIO_UTIL_HH

#include <string>
#include <utility>
#include <vector>

#include "common/table.hh"
#include "study/scenario.hh"
#include "topology/zoo.hh"
#include "workload/zoo.hh"

namespace libra {

/** One design point on @p net targeting @p w alone (weight 1) with the
 *  harness search settings; a temporary @p w is moved, not copied. */
inline LibraInputs
makeStudyPoint(const Network& net, Workload w,
               OptimizationObjective objective, double total_bw)
{
    LibraInputs p;
    p.networkShape = net.name();
    p.targets.push_back({std::move(w), 1.0});
    p.config.objective = objective;
    p.config.totalBw = total_bw;
    p.config.search = paperSearchOptions();
    return p;
}

/** Integer-formatted BW label ("250"), the row-identity convention. */
inline std::string
bwLabel(double bw)
{
    return Table::num(bw, 0);
}

/** The Fig. 10 networks — shared by build() and format(). */
inline std::vector<topo::NamedNetwork>
fig10Nets()
{
    return {{"2D", topo::twoD4K()},
            {"3D", topo::threeD4K()},
            {"4D", topo::fourD4K()}};
}

/** The Fig. 16 topologies — the shape/scale exploration axis. */
inline std::vector<topo::NamedNetwork>
fig16Nets()
{
    return {{"3D-512", topo::threeD512()},
            {"3D-1K", topo::threeD1K()},
            {"4D-2K", topo::fourD2K()}};
}

/** A zoo workload builder at a given NPU count, e.g. wl::gpt3. */
using WorkloadBuilder = Workload (*)(long npus);

/** The two Fig. 17 ensembles; (a) LLMs, (b) a DNN mixture. */
inline const std::vector<std::vector<WorkloadBuilder>>&
fig17Studies()
{
    static const std::vector<std::vector<WorkloadBuilder>> studies{
        {wl::turingNlg, wl::gpt3, wl::msft1T},
        {wl::msft1T, wl::dlrm, wl::resnet50}};
    return studies;
}

/** The Fig. 21 tensor-parallel degrees (DP fills the rest). */
inline const std::vector<long>&
fig21TpDegrees()
{
    static const std::vector<long> degrees{8, 16, 32, 64, 128, 256};
    return degrees;
}

/**
 * Append a provenance note when a non-exhaustive strategy pruned part
 * of the space: rows built from screened outcomes reflect
 * screening-budget results, not full-budget optimizations, and paper
 * claim checks should not be read off them. Under the exhaustive
 * default this appends nothing, keeping the output byte-identical.
 */
inline void
noteScreenedOutcomes(ScenarioOutput& out, const ExploreResult& r)
{
    std::size_t screened = 0;
    for (const auto& o : r.outcomes)
        screened += o.fullBudget ? 0 : 1;
    if (screened == 0)
        return;
    out.notes.push_back(
        "NOTE: " + std::to_string(screened) + " of " +
        std::to_string(r.outcomes.size()) +
        " candidates were pruned after a screening pass; rows built "
        "from them carry screening-budget results, not full-budget "
        "optimizations (run with the exhaustive strategy for the "
        "paper figures).");
}

} // namespace libra

#endif // LIBRA_STUDY_SCENARIO_UTIL_HH
