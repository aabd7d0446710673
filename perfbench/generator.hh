/**
 * @file
 * Seeded input generation for the benchmark workloads.
 *
 * Everything a workload feeds the program comes from here, as a pure
 * function of the run's --seed: the cold-sweep design points (as
 * study-file text), the warm-rerun scenario orders, and the serve-mixed
 * request sequence. The random stream is the benchmark's own
 * splitmix64, not the library's, so a change to LIBRA's RNG can never
 * change the benchmark's inputs.
 */

#ifndef PERFBENCH_GENERATOR_HH
#define PERFBENCH_GENERATOR_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** splitmix64 stream; deterministic across platforms and builds. */
class SeededStream
{
  public:
    explicit SeededStream(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();

    /** Uniform in [0, n); n > 0. */
    std::size_t below(std::size_t n);

    /** Uniform in [0, 1). */
    double unit();

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T>& v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

/** Derive an independent stream seed from (seed, salt). */
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t salt);

/**
 * Cold-sweep design points, as study-file text: @p batches batches of
 * one point per stratum. A stratum is a (topology-zoo shape, workload-
 * zoo mix) pair. Objective and training loop rotate over the batches;
 * the seed draws each point's paperBwSweep() budget without
 * replacement within its (stratum, objective, loop) cell, so no two
 * points of a run are equal (for up to 40 batches) and every batch
 * carries the same mix of shapes, workloads, objectives and loops. The
 * order inside a batch is shuffled too.
 */
std::vector<std::vector<std::string>>
coldSweepBatches(std::uint64_t seed, std::size_t batches);

/** Points per cold-sweep batch (the number of strata). */
std::size_t coldSweepBatchSize();

/** The warm-rerun scenario order for op @p op: a seeded permutation. */
std::vector<std::string> warmRerunOrder(std::uint64_t seed, std::size_t op,
                                        std::vector<std::string> names);

/** One serve-mixed request. */
struct ServeRequest
{
    std::string scenario;
    std::string emit; ///< "json" or "csv".
};

/**
 * The serve-mixed scenarios: the golden group, the serve traffic that
 * ROADMAP item 2 names (fig10 and golden). The shares below are
 * synthetic; they keep only the two properties the workload needs.
 */
const std::vector<std::string>& serveScenarios();

/** Requests of each golden scenario other than fig10 per block. */
constexpr std::size_t kServeHotRepeats = 4;

/**
 * Seeded request sequence of length @p n, in blocks shuffled by the
 * seed: each block holds every golden scenario other than fig10
 * kServeHotRepeats times (one csv, the rest json) and fig10 once (csv
 * in every fourth block). With the six golden scenarios fig10 is 1
 * request in 21: more than 1% and far less than half, so it sets p99
 * and not p50.
 */
std::vector<ServeRequest> serveRequestSequence(std::uint64_t seed,
                                               std::size_t n);

/** The request line `{"scenario": ..., "emit": ...}` for @p r. */
std::string serveRequestLine(const ServeRequest& r);

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_HH
