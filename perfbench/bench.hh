/**
 * @file
 * The benchmark's workloads: what one `perfbench` process runs.
 *
 * An untraced run sets a workload up several times (the median, a warm
 * re-set-up, is setup_s), then runs its closed-loop op phase for the
 * requested seconds and verifies every op's output. A traced run sets
 * up once and replays the workload's inputs through each layer's public
 * calls under spans (layers.cc), reporting the per-layer metrics.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/framework.hh"
#include "study/matrix.hh"

namespace perfbench {

/** Command-line settings of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir;   ///< Scratch directory (caches, socket).
    std::string cliPath;   ///< Built libra_cli, exec'd as shard worker.
    std::string goldenDir; ///< tests/golden of the checkout.
    std::string traceOut;  ///< Chrome trace path for traced runs.
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a run reports. */
struct RunResult
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool correct = true;   ///< Sanity checks beyond per-op verification.
    std::vector<Metric> metrics;
    libra::Json notes = libra::Json::object(); ///< Run metadata.
};

/** The four workload names. */
const std::vector<std::string>& workloadNames();

/** Run @p options.workload (untraced or traced). */
RunResult runWorkload(const Options& options);

/**
 * What a workload's set-up leaves for the traced replay: the scenarios
 * of one op and the state they run against.
 */
struct WorkloadState
{
    std::vector<std::string> names; ///< Scenarios of one op, in order.
    std::string cacheDir;           ///< Disk cache ("" = none).
    bool freshCacheEachOp = false;  ///< Cold workloads: empty per op.
    std::string exploreSpec;        ///< Run-wide EXPLORE override.
    std::string refMatrixBytes;     ///< emitMatrixJson of `names`.
    std::vector<libra::LibraInputs> samplePoints; ///< Compute probes.
    std::vector<std::string> serveLines; ///< Serve probe requests.
    std::size_t lruCapacity = 0;

    /**
     * The workload's op as run in the timed phase, from a fresh state:
     * the traced run calls it twice and checks the counters repeat.
     */
    std::function<libra::MatrixResult()> canonicalOp;
};

/** The traced replay over @p state (layers.cc). */
RunResult traceWorkload(const Options& options, WorkloadState& state);

/** emitMatrixJson into a string. */
std::string emitJsonBytes(const libra::MatrixResult& result);

/** Create @p dir empty (removing what was there). */
void freshDir(const std::string& dir);

/** Linear-interpolated percentile @p p in [0, 1]. */
double percentile(std::vector<double> values, double p);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
