/**
 * @file
 * Design-study configuration parser: the whole Fig. 3 input set in one
 * text file, for driving LIBRA without writing C++ (see tools/libra_cli).
 *
 *     # design study
 *     NETWORK RI(4)_FC(8)_RI(4)_SW(32)
 *     TOTAL_BW 500
 *     OBJECTIVE PERF            # or PERF_PER_COST
 *     LOOP NO_OVERLAP           # or TP_DP_OVERLAP
 *     CONSTRAINT B4 <= 50
 *     CONSTRAINT B1 >= B2
 *     WORKLOAD gpt3             # zoo names; or WORKLOAD_FILE <path>
 *     WORKLOAD msft1t WEIGHT 2.0
 *     NORMALIZE_WEIGHTS         # 1/T_EqualBW importance weighting
 *     IN_NETWORK                # switch-offloaded All-Reduce
 *     DOLLAR_CAP 1.5e7          # optional; makes TOTAL_BW a ceiling
 *     COST Pod LINK 7.8 SWITCH 18.0 NIC 31.6   # cost-model override
 *     THREADS 8                 # solver parallelism (results are
 *                               # identical at any thread count)
 *     MAX_EVALS 240             # per-start objective-eval budget
 *                               # (0 = unlimited; the screening
 *                               # pass of EXPLORE prune sets it)
 *     BACKEND chunk-sim         # collective-timing backend
 *                               # (`libra_cli list-backends`; default
 *                               # is the analytical model)
 *     EXPLORE prune             # outer-loop exploration strategy
 *                               # (`libra_cli list-explorers`; default
 *                               # is exhaustive; inert for a single
 *                               # study point, stamps design-space
 *                               # candidates)
 *
 * Zoo names: turing-nlg, gpt3, msft1t, dlrm, resnet50 (each sized to
 * the network's NPU count). A token a directive does not take is an
 * error naming its line.
 */

#ifndef LIBRA_CORE_STUDY_CONFIG_HH
#define LIBRA_CORE_STUDY_CONFIG_HH

#include <iosfwd>
#include <string>

#include "core/framework.hh"

namespace libra {

/**
 * Parse a study file into ready-to-run LibraInputs.
 * @throws FatalError with line numbers on malformed input.
 */
LibraInputs parseStudyConfig(std::istream& in);

/** Convenience overload over a string. */
LibraInputs parseStudyConfigString(const std::string& text);

/**
 * Serialize parsed inputs back to study-file text such that
 * parseStudyConfigString(studyConfigToString(in)) reproduces @p inputs
 * exactly (the round-trip property test's contract). Every expressible
 * directive is emitted explicitly — including the full COST model and
 * the search SEED/STARTS — so the text is self-contained.
 *
 * @throws FatalError for inputs the study-file language cannot express:
 * non-default minDimBw / efficiency modeling, relaxTotalBw without a
 * DOLLAR_CAP, or target
 * workloads that are not zoo workloads at the network's NPU count
 * (e.g. WORKLOAD_FILE-loaded or programmatically built ones).
 */
std::string studyConfigToString(const LibraInputs& inputs);

/**
 * True when @p inputs has a study-file form (studyConfigToString would
 * succeed). The shard layer uses this to decide whether a design point
 * can ship to a worker as an eval frame or must run in-process.
 */
bool studyConfigSerializable(const LibraInputs& inputs);

/** Deep equality of two parsed study inputs (round-trip testing). */
bool studyInputsEqual(const LibraInputs& a, const LibraInputs& b);

/** Resolve a zoo workload name ("gpt3", "msft1t", ...) at @p npus. */
Workload zooWorkloadByName(const std::string& name, long npus);

} // namespace libra

#endif // LIBRA_CORE_STUDY_CONFIG_HH
