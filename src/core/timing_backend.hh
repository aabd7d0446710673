/**
 * @file
 * Pluggable collective-timing backends for the training estimator.
 *
 * Every source of collective timing LIBRA knows implements one
 * interface:
 *
 *     timing(type, size, spans, bw, in_network) -> CollectiveTiming
 *
 * and registers itself in the process-wide TimingBackendRegistry under
 * a stable name:
 *
 *  - "analytical" (the default): the closed-form multi-rail bottleneck
 *    model (multiRailTime) the paper's optimizer is built on. Selecting
 *    it is bit-identical to the historical hard-wired path.
 *  - "chunk-sim": the chunk-granularity pipeline simulator
 *    (ChunkTimeline) run per collective, so whole studies can be
 *    re-executed under simulation and the analytical model's error
 *    quantified across the full scenario matrix (the `crossval`
 *    scenario does exactly that).
 *  - "themis": the greedy Themis runtime chunk scheduler
 *    (runtime/themis.hh), for studies that compose LIBRA with Themis
 *    (paper Fig. 19).
 *
 * Study files select backends with `BACKEND <name>` and the CLI with
 * `--backend` / `list-backends`, mirroring the EXPLORE strategy layer.
 *
 * A backend the analytical model tracks within a documented bound
 * declares searchesAnalytically(), and the optimizer then searches
 * analytically and polishes under it; chunk-sim does.
 *
 * Contract (see docs/BACKENDS.md): timing() must be a deterministic
 * pure function of its arguments, const-callable from any number of
 * threads concurrently, and must return a nonnegative, finite
 * CollectiveTiming whose per-dimension vectors align with @p spans —
 * the estimator checks this at the seam and throws FatalError on a
 * violation. Every backend runs inside the parallel multistart/sweep
 * fan-out on the global thread pool and is folded into the study-cache
 * key by its cacheKeyTag.
 */

#ifndef LIBRA_CORE_TIMING_BACKEND_HH
#define LIBRA_CORE_TIMING_BACKEND_HH

#include <string>
#include <vector>

#include "collective/multi_rail.hh"
#include "common/registry.hh"
#include "topology/network.hh"

namespace libra {

/** The default backend: the analytical multi-rail bottleneck model. */
inline constexpr const char* kAnalyticalTimingBackendName = "analytical";

/** The chunk-level simulation backend. */
inline constexpr const char* kChunkSimTimingBackendName = "chunk-sim";

/** The Themis runtime-scheduler backend. */
inline constexpr const char* kThemisTimingBackendName = "themis";

/**
 * Pipelining granularity of the chunk-sim and themis backends (paper
 * §V-B uses 64 chunks). More chunks shrink the pipeline fill/drain
 * ramp — and with it the deviation from the analytical steady-state
 * model — at linearly growing simulation cost.
 */
inline constexpr int kChunkSimNumChunks = 64;

/** One registered timing model; see the file comment's contract. */
class TimingBackend
{
  public:
    static constexpr const char* kRegistryKind = "timing backend";

    virtual ~TimingBackend() = default;

    /** Registry key, e.g. "chunk-sim". */
    virtual std::string name() const = 0;

    /** One-line description for `libra_cli list-backends`. */
    virtual std::string description() const = 0;

    /**
     * Study-cache content tag. canonicalStudyKey folds this (not the
     * bare name) for non-default backends, so a backend must encode
     * every semantic parameter here — chunk-sim tags its chunk count
     * ("chunk-sim/64") — and previously cached results go stale the
     * moment a parameter changes. Algorithmic rewrites at the same
     * parameters still warrant bumping the tag by hand.
     */
    virtual std::string cacheKeyTag() const { return name(); }

    /**
     * Whether the analytical model tracks this backend closely enough
     * to drive the bandwidth search. When true, BwOptimizer::optimize
     * runs its whole multistart analytically and spends this backend's
     * evaluations only on polishing the analytical winner
     * (docs/BACKENDS.md, "Cross-fidelity search"). A backend declares
     * it on the strength of a documented agreement bound, and bumps
     * its cacheKeyTag when the declaration changes.
     */
    virtual bool searchesAnalytically() const { return false; }

    /**
     * Timing of one collective of @p size bytes over @p spans under
     * @p bw. Must be thread-safe and deterministic; @p spans is never
     * empty (the estimator short-circuits empty groups).
     */
    virtual CollectiveTiming timing(CollectiveType type, Bytes size,
                                    const std::vector<DimSpan>& spans,
                                    const BwConfig& bw,
                                    bool in_network) const = 0;
};

/** The BACKEND layer's registry; its built-ins are listed above. */
using TimingBackendRegistry = Registry<TimingBackend>;
template <>
void TimingBackendRegistry::registerBuiltins(TimingBackendRegistry& registry);

/** The effective backend name: "" selects the analytical default. */
std::string timingBackendOrDefault(const std::string& name);

/**
 * Resolve a backend name ("" = analytical) against the global
 * registry. @throws FatalError naming the unknown backend and the
 * known ones.
 */
const TimingBackend* resolveTimingBackend(const std::string& name);

/**
 * Documented agreement tolerance between the chunk-sim backend and the
 * analytical model for one collective: the simulator reproduces every
 * per-dimension stage's traffic exactly, so the only deviation is the
 * pipeline fill/drain ramp, bounded by one chunk's trip through all
 * stages — sum_i t_i / num_chunks seconds on top of the analytical
 * bottleneck time max_i t_i. Returned as a relative bound on
 * (sim - analytical) / analytical; the randomized cross-validation
 * suite asserts against it.
 */
double chunkSimRelTolerance(const CollectiveTiming& analytical,
                            int num_chunks = kChunkSimNumChunks);

} // namespace libra

#endif // LIBRA_CORE_TIMING_BACKEND_HH
