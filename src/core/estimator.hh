/**
 * @file
 * End-to-end training-time estimation (paper §IV-C).
 *
 * The estimator turns a workload IR plus a bandwidth configuration into
 * an end-to-end iteration time under a chosen training loop:
 *
 *  - NoOverlap (Fig. 5b): every compute and communication stage runs
 *    exclusively; times add up.
 *  - TpDpOverlap (Fig. 5c): in the backward pass, TP communication
 *    overlaps DP compute + DP communication:
 *      t_bwd(layer) = TP_comp + max(TP_comm, DP_comp + DP_comm).
 *
 * All communication times are functions of the per-dimension bandwidth
 * vector only — the property LIBRA's optimizer exploits.
 */

#ifndef LIBRA_CORE_ESTIMATOR_HH
#define LIBRA_CORE_ESTIMATOR_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "collective/mapping.hh"
#include "collective/multi_rail.hh"
#include "topology/network.hh"
#include "workload/workload.hh"

namespace libra {

/** Compute/communication scheduling policy (paper Fig. 5). */
enum class TrainingLoop { NoOverlap, TpDpOverlap };

class TimingBackend;

namespace detail {
template <typename Lane> struct BatchKernel;
} // namespace detail

/**
 * Name of the SIMD kernel estimateBatch dispatches full-width blocks
 * to: "avx512", "avx2", "neon", or "scalar". Decided once at startup
 * from the kernels compiled in (the LIBRA_SIMD CMake option) and what
 * the running CPU supports. Purely informational — every kernel is
 * bit-identical to the scalar path.
 */
const char* activeSimdKernel();

/**
 * Pluggable collective-time model. The default is the analytical
 * multi-rail bottleneck model; runtime optimizers (e.g. Themis) install
 * their own timing here.
 *
 * Thread-safety contract: one TrainingEstimator is shared by every
 * solver thread, so an installed CommTimeFn MUST be const-callable
 * from multiple threads concurrently and carry no unsynchronized
 * mutable state. The engine cannot verify this, so it plays safe: a
 * custom fn serializes the multistart/sweep fan-out (see
 * BwOptimizer::optimize and runLibraSweep) and makes the study point
 * uncacheable. Named TimingBackend registrations promise thread
 * safety and keep both (docs/BACKENDS.md) — prefer them for any
 * reusable timing model.
 *
 * Whatever the source, a returned CollectiveTiming must be
 * nonnegative and finite, with per-dimension vectors aligned with the
 * span list; the estimator checks this at the seam and throws
 * FatalError on a violation.
 */
using CommTimeFn = std::function<CollectiveTiming(
    CollectiveType, Bytes, const std::vector<DimSpan>&, const BwConfig&,
    bool in_network)>;

/** Full timing breakdown of one training iteration. */
struct EstimateDetail
{
    Seconds total = 0.0;        ///< End-to-end iteration time.
    Seconds computeTotal = 0.0; ///< All compute across phases.
    Seconds exposedComm = 0.0;  ///< Communication on the critical path.

    Seconds fwdCompute = 0.0;
    Seconds fwdComm = 0.0;
    Seconds igCompute = 0.0;    ///< TP backward compute.
    Seconds igComm = 0.0;       ///< TP backward communication.
    Seconds wgCompute = 0.0;    ///< DP backward compute.
    Seconds wgComm = 0.0;       ///< DP gradient-sync communication.

    /** Per-network-dimension busy seconds summed over all collectives. */
    std::vector<Seconds> dimBusy;

    /** Per-network-dimension bytes moved (per NPU). */
    std::vector<Bytes> dimTraffic;

    /**
     * Fraction of total network byte-capacity used while communication
     * is in flight: sum(traffic) / (sum(B) * comm time). The Fig. 10
     * "average network BW utilization" metric.
     */
    double avgBwUtilization = 0.0;
};

/** Estimator options. */
struct EstimatorOptions
{
    TrainingLoop loop = TrainingLoop::NoOverlap;
    bool inNetworkCollectives = false; ///< Switch-offloaded All-Reduce.
    CommTimeFn commTimeFn;             ///< Empty = timingBackend below.

    /**
     * Registered timing-backend name ("" or "analytical" = the
     * default closed-form model, bit-identical to the historical
     * path; "chunk-sim" = per-collective pipeline simulation). See
     * core/timing_backend.hh; an explicit commTimeFn wins over the
     * backend. Resolved (and validated) when the estimator is built.
     */
    std::string timingBackend;

    /**
     * Model the achievable-BW penalty of communicator groups that span
     * a dimension only partially (see DimSpan::efficiency). Disable to
     * reproduce the paper's efficiency-blind optimizer behaviour.
     */
    bool modelPartialDimEfficiency = true;
};

/**
 * Precompiled evaluation form of one workload on one network.
 *
 * The optimizer evaluates the training-time objective tens of thousands
 * of times; compiling resolves every collective to its per-dimension
 * traffic once. Evaluation runs over a flat structure-of-arrays layout:
 *
 *  - Ops spanning a single dimension need no bottleneck max, and their
 *    times simply add — so their traffic is pre-summed per (layer,
 *    phase, dim) at compile time. Under NoOverlap the whole workload
 *    further collapses to one per-dim traffic vector plus a compute
 *    constant, making an evaluation O(dims + multi-span entries) with
 *    no layer loop at all.
 *  - Ops spanning several dimensions keep per-op extents into one
 *    contiguous (traffic, dim) entry array for the max reduction.
 *
 * Per call the bandwidth vector is inverted once (reciprocal GB/s
 * scaling), so the hot loop is a branch-light multiply-and-max over
 * contiguous memory — no pointer chasing, no divisions. Aggregation
 * reorders floating-point additions, so results agree with
 * TrainingEstimator::estimate() to summation rounding (~n*eps; the
 * property tests assert 1e-12 relative), and are always bit-identical
 * run-to-run at any thread count.
 *
 * CompiledWorkload is immutable after compile() and estimate() is pure,
 * so one instance may be shared by any number of solver threads.
 */
class CompiledWorkload
{
  public:
    /** Iteration time under @p bw (GB/s per dimension); SoA fast path. */
    Seconds estimate(const BwConfig& bw) const;

    /**
     * Evaluate @p n bandwidth configurations into @p out, SIMD lanes
     * laid across candidates (core/eval_kernels_impl.hh). Each out[i]
     * is bit-identical to estimate(bws[i]). A remainder of two or
     * more candidates past the last full SIMD block runs as one padded
     * block; a lone leftover candidate takes the scalar path.
     */
    void estimateBatch(const BwConfig* bws, std::size_t n,
                       Seconds* out) const;

    /** Convenience overload of the batched evaluator. */
    std::vector<Seconds>
    estimateBatch(const std::vector<BwConfig>& bws) const
    {
        std::vector<Seconds> out(bws.size(), 0.0);
        estimateBatch(bws.data(), bws.size(), out.data());
        return out;
    }

    /**
     * Iteration time via the legacy nested (vector-of-vector-of-pairs)
     * layout. Kept as the A/B reference for bench/micro_objective_eval
     * and the equivalence tests; same math, slower memory walk.
     */
    Seconds estimateNested(const BwConfig& bw) const;

    /** Network rank this workload was compiled against. */
    std::size_t numDims() const { return numDims_; }

  private:
    friend class TrainingEstimator;

    /** The batched SIMD kernels evaluate the SoA arrays directly. */
    template <typename Lane> friend struct detail::BatchKernel;

    /** One collective resolved to (dimension, bytes) pairs. */
    using Op = std::vector<std::pair<std::size_t, Bytes>>;

    struct CompiledLayer
    {
        Seconds fwdCompute = 0.0;
        Seconds igCompute = 0.0;
        Seconds wgCompute = 0.0;
        std::vector<Op> fwd, ig, wg;
    };

    /** Half-open multi-span-op range [begin, end) into opOffset_. */
    struct PhaseRange
    {
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
    };

    /**
     * SoA per-layer record (TpDpOverlap path): compute times,
     * multi-span op ranges, and the index of this layer's per-dim
     * single-span traffic rows in singles_.
     */
    struct LayerMeta
    {
        Seconds fwdCompute = 0.0;
        Seconds igCompute = 0.0;
        Seconds wgCompute = 0.0;
        PhaseRange fwd, ig, wg;
        std::uint32_t singlesRow = 0; ///< fwd row; ig/wg follow.
    };

    static Seconds opsTime(const std::vector<Op>& ops, const BwConfig& bw);

    /** Bottleneck-time sum of the multi-span ops in @p r. */
    Seconds multiOpsTime(PhaseRange r, const double* recip) const;

    /** Dot of a singles_ row with the reciprocal-bandwidth vector. */
    Seconds singlesTime(std::uint32_t row, const double* recip) const;

    /** Build the flat arrays from layers_. */
    void buildSoA();

    TrainingLoop loop_ = TrainingLoop::NoOverlap;
    std::vector<CompiledLayer> layers_; ///< Nested reference layout.

    // SoA evaluation layout (derived from layers_ by buildSoA).
    std::size_t numDims_ = 0;
    std::vector<Bytes> traffic_;         ///< Multi-span op traffic.
    std::vector<std::uint32_t> entryDim_; ///< Dim of each traffic entry.
    std::vector<std::uint32_t> opOffset_; ///< Entry extents; numOps + 1.
    std::vector<LayerMeta> meta_;

    /**
     * Per-dim traffic sums of single-span ops, numDims_ values per
     * row: one row per (layer, phase) for TpDpOverlap.
     */
    std::vector<Bytes> singles_;

    // NoOverlap whole-workload aggregates: every phase time adds, so
    // evaluation needs no layer loop at all.
    Seconds totalCompute_ = 0.0;
    std::vector<Bytes> allSingles_;    ///< numDims_ traffic sums.
    PhaseRange allMulti_;              ///< All multi-span ops.
};

/**
 * Estimates training time for workloads on one network.
 *
 * All query methods are const and touch no mutable state, so a single
 * estimator may be shared across solver threads (provided any custom
 * commTimeFn is itself thread-safe; the built-in analytical model is).
 */
class TrainingEstimator
{
  public:
    TrainingEstimator(Network net, EstimatorOptions options = {});

    const Network& network() const { return net_; }
    const EstimatorOptions& options() const { return options_; }

    /**
     * True when timing comes from the built-in analytical model (no
     * custom commTimeFn, default backend) — the precondition for
     * compile() and the SoA objective fast path.
     */
    bool
    usesAnalyticalTiming() const
    {
        return !options_.commTimeFn && backend_ == nullptr;
    }

    /** Dimension spans of a comm scope under @p strategy. */
    std::vector<DimSpan> spansFor(const Parallelization& strategy,
                                  CommScope scope) const;

    /**
     * Span vectors of all four comm scopes, indexed by CommScope.
     * Computed once per estimate()/detail()/compile() call so the
     * per-op group-to-dimension mapping is not redone for every op of
     * every layer.
     */
    using ScopeSpans = std::array<std::vector<DimSpan>, 4>;
    ScopeSpans spansForAll(const Parallelization& strategy) const;

    /** Time of one collective op under @p bw. */
    Seconds commTime(const CommOp& op, const Parallelization& strategy,
                     const BwConfig& bw) const;

    /** End-to-end iteration time. */
    Seconds estimate(const Workload& w, const BwConfig& bw) const;

    /**
     * Precompile @p w for fast repeated evaluation. Only valid for the
     * built-in analytical model (no custom commTimeFn, default
     * timing backend).
     */
    CompiledWorkload compile(const Workload& w) const;

    /** Full breakdown (slower; for reporting). */
    EstimateDetail detail(const Workload& w, const BwConfig& bw) const;

  private:
    /** Timing of one collective via the configured model. */
    CollectiveTiming timingOf(CollectiveType type, Bytes size,
                              const std::vector<DimSpan>& spans,
                              const BwConfig& bw) const;

    Seconds commListTime(const std::vector<CommOp>& ops,
                         const ScopeSpans& spans, const BwConfig& bw,
                         EstimateDetail* detail) const;

    Network net_;
    EstimatorOptions options_;

    /**
     * Resolved non-default timing backend; nullptr for the default
     * analytical model, so the historical hot path is untouched.
     */
    const TimingBackend* backend_ = nullptr;
};

} // namespace libra

#endif // LIBRA_CORE_ESTIMATOR_HH
