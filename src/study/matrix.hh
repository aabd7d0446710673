/**
 * @file
 * Scenario-matrix runner: execute any subset of registered scenarios as
 * one batched, cached, sharded study.
 *
 * The runner concatenates every selected scenario's design points,
 * deduplicates them by content hash (figures that share design points —
 * e.g. Fig. 13 and Fig. 14 plot the same grid — are optimized once),
 * serves previously seen points from the ResultCache, and runs the
 * remaining unique points as one batch on the global thread pool,
 * storing each to the cache as it completes (so a killed run resumes
 * from the cache alone). Each scenario then formats its aligned report
 * slice.
 *
 * Determinism: runLibraSweep results are bit-identical at any thread
 * count, report JSON round-trips bit-exactly through the cache, and all
 * emission is insertion-ordered — so a matrix run emits byte-identical
 * JSON whether its points were computed or loaded from cache.
 *
 * Fault tolerance (docs/ROBUSTNESS.md): under FailMode::Isolate a
 * design point whose evaluation throws FatalError becomes a recorded
 * PointFailure on its scenario instead of unwinding the run; scenarios
 * without failures emit byte-identical output to an all-ok run.
 */

#ifndef LIBRA_STUDY_MATRIX_HH
#define LIBRA_STUDY_MATRIX_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hh"
#include "study/cache.hh"
#include "study/scenario.hh"

namespace libra {

/**
 * What a design point's FatalError does to the rest of a matrix run.
 * Abort preserves the classic unwind (the lowest-index failing point's
 * error, deterministically); Isolate records the failure per scenario
 * and keeps every other scenario's rows byte-identical to an all-ok
 * run. See docs/ROBUSTNESS.md.
 */
enum class FailMode
{
    Abort,
    Isolate,
};

/** Matrix runner options. */
struct MatrixOptions
{
    /** Cache directory; empty disables the result cache. */
    std::string cacheDir;

    /**
     * Externally owned study store used instead of opening @ref
     * cacheDir — the serve subsystem passes its shared LRU + disk
     * layering here so every concurrent request runs against one
     * store (src/serve/, docs/SERVE.md). Null keeps the
     * classic behavior (a per-run ResultCache when cacheDir is set).
     */
    StudyStore* store = nullptr;

    /**
     * Solver-pipeline override (registry names) applied to every
     * design point before dedup/caching — the `--solver` flag. Empty
     * keeps each point's own pipeline (the scenario default).
     */
    std::vector<std::string> solverPipeline;

    /**
     * Timing-backend override (registry name) applied to every design
     * point before dedup/caching — the `--backend` flag, for re-running
     * whole matrices under simulation. Empty keeps each point's own
     * backend (the scenario default, usually analytical).
     */
    std::string timingBackend;

    /**
     * Exploration-strategy override (an `EXPLORE` spec, e.g.
     * "prune,keep=0.25") applied to every design-space scenario in the
     * run — the `--explore` flag. Empty keeps each scenario's own
     * default. Scenarios without a design space are unaffected (there
     * is no outer loop to search).
     */
    std::string exploreSpec;

    /** Failure handling for design-point evaluation (see FailMode). */
    FailMode failMode = FailMode::Abort;

    /**
     * Shard owned computation across this many forked worker
     * processes — the `--workers` flag (docs/SHARDING.md). 0 or 1
     * keeps the classic in-process sweep. The pool is warm: workers
     * fork and handshake once per run, then serve the shared batch
     * and every adaptive (non-default EXPLORE) round as serialized
     * wire points (eval frames). Results merge by index through the
     * content-addressed cache, so emitted bytes are identical at any
     * worker count. Points without a study-file wire form (non-zoo
     * workloads) stay in-process.
     */
    std::size_t workers = 0;

    /**
     * Executable exec'd as `<workerExe> worker` for sharded runs
     * (normally libra_cli itself). Required when workers > 1.
     */
    std::string workerExe;

    /** Threads per worker; 0 = hardware concurrency / workers. */
    int workerThreads = 0;
};

/** One failed design point inside a scenario (FailMode::Isolate). */
struct PointFailure
{
    std::size_t index = 0; ///< Point index within the scenario.
    std::string label;     ///< Human handle (network shape, or phase).
    std::string error;     ///< FatalError message, prefix stripped.
};

/** One executed scenario with its provenance counters. */
struct ScenarioRun
{
    std::string name;
    std::string title;
    ScenarioOutput output;
    std::size_t points = 0;     ///< Design points this scenario built.
    std::size_t fromCache = 0;  ///< Points served from the cache.

    /**
     * Failed points (FailMode::Isolate only; always empty under
     * Abort). A scenario with failures emits no rows/summary — a
     * partial table would silently misalign figure columns — only
     * this list.
     */
    std::vector<PointFailure> failures;
};

/** Result of one matrix execution. */
struct MatrixResult
{
    std::vector<ScenarioRun> scenarios;
    std::size_t points = 0;    ///< Total points across scenarios.
    std::size_t unique = 0;    ///< Distinct points after dedup.
    std::size_t fromCache = 0; ///< Points served from the cache.
    std::size_t computed = 0;  ///< Points this run optimized itself.
    std::size_t coalesced = 0; ///< Always 0; perfbench/layers.cc
                               ///< still reads it.
    std::size_t failed = 0;    ///< Failed points (Isolate mode).
};

/**
 * Run @p names (registry keys) under @p options.
 * @throws FatalError on an unknown scenario name.
 */
MatrixResult runScenarioMatrix(const std::vector<std::string>& names,
                               const MatrixOptions& options = {});

/**
 * Stable JSON form of a matrix result. Contains only run-independent
 * content (no cache counters or timings), so two runs of the same
 * matrix — cached or not — dump byte-identical text.
 */
Json matrixToJson(const MatrixResult& result);

/** JSON form of one scenario run (the golden-file payload). */
Json scenarioRunToJson(const ScenarioRun& run);

/** Emit matrixToJson with a trailing newline. */
void emitMatrixJson(const MatrixResult& result, std::ostream& os);

/**
 * CSV emission: one row per scenario row; header is the union of the
 * scenario's label and metric keys, prefixed by the scenario name.
 * Summary metrics follow as `summary` rows.
 */
void emitMatrixCsv(const MatrixResult& result, std::ostream& os);

/**
 * Paper-style human rendering of every scenario (banner, aligned
 * table of label then metric columns, summary lines, notes), plus
 * cache statistics. libra_cli's default output.
 */
void printMatrixHuman(const MatrixResult& result, std::ostream& os);

} // namespace libra

#endif // LIBRA_STUDY_MATRIX_HH
