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
#include <span>
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

class CompiledWorkload;

/** One batched-estimator kernel (core/eval_kernels.cc). */
struct EstimateKernel
{
    const char* name; ///< "avx512", "avx2", "neon", or "scalar".
    void (*run)(const CompiledWorkload& cw, const BwConfig* bws,
                std::size_t n, Seconds* out);
};

/**
 * The batched kernels compiled in (the LIBRA_SIMD CMake option) that
 * the running CPU supports, widest first, "scalar" last; listed once
 * at first use. estimateBatch runs the first entry. Every kernel is
 * bit-identical to the scalar path, so the choice is a pure
 * throughput knob.
 */
std::span<const EstimateKernel> estimateKernels();

/** Name of the kernel estimateBatch runs (informational). */
const char* activeSimdKernel();

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

    /**
     * Registered timing-backend name ("" or "analytical" = the
     * default closed-form model, bit-identical to the historical
     * path; "chunk-sim" = per-collective pipeline simulation;
     * "themis" = the Themis runtime scheduler). See
     * core/timing_backend.hh. Resolved (and validated) when the
     * estimator is built.
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
 *    phase, dim) at compile time. Under NoOverlap those sums further
 *    collapse to one per-dim traffic vector plus a compute constant.
 *  - Ops spanning several dimensions keep per-op extents into one
 *    contiguous (traffic, dim) entry array for the max reduction.
 *  - A run of consecutive bit-identical layers (a transformer's
 *    decoder stack) is stored once with a repeat count. Its comm
 *    times are computed once per call, and their adds are replayed
 *    `repeat` times in layer order, so an evaluation costs O(dims x
 *    distinct layers) but performs the very same floating-point adds,
 *    on the same values, as a walk over every layer.
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
    /**
     * Iteration time under @p bw (GB/s per dimension): one candidate
     * through the scalar instance of the batch kernel
     * (core/eval_kernels_impl.hh).
     */
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

    /** Network rank this workload was compiled against. */
    std::size_t numDims() const { return numDims_; }

  private:
    friend class TrainingEstimator;

    /** The batched SIMD kernels evaluate the SoA arrays directly. */
    template <typename Lane> friend struct detail::BatchKernel;

    /** One collective resolved to (dimension, bytes) pairs. */
    using Op = std::vector<std::pair<std::size_t, Bytes>>;

    /** Half-open index range [begin, end) into an op list. */
    struct PhaseRange
    {
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
    };

    /**
     * One layer as compile() hands it to buildSoA: compute times and,
     * per phase, a range into the call's op-id list (each id names one
     * distinct resolved op).
     */
    struct CompiledLayer
    {
        Seconds fwdCompute = 0.0;
        Seconds igCompute = 0.0;
        Seconds wgCompute = 0.0;
        PhaseRange fwd, ig, wg;
    };

    /**
     * SoA record of one run of identical layers: compute times,
     * multi-span op ranges (fwd, ig and wg are contiguous), the index
     * of the layer's per-dim single-span traffic rows in singles_,
     * and how many consecutive layers the run stands for.
     */
    struct LayerMeta
    {
        Seconds fwdCompute = 0.0;
        Seconds igCompute = 0.0;
        Seconds wgCompute = 0.0;
        PhaseRange fwd, ig, wg;
        std::uint32_t singlesRow = 0; ///< fwd row; ig/wg follow.
        std::uint32_t repeat = 1;
    };

    /**
     * Build the flat arrays from @p layers, whose phase ranges index
     * @p op_ids, whose ids index @p ops. Each run of consecutive
     * layers whose compute times and ops match bit for bit becomes one
     * LayerMeta.
     */
    void buildSoA(const std::vector<CompiledLayer>& layers,
                  const std::vector<std::uint32_t>& op_ids,
                  const std::vector<Op>& ops);

    TrainingLoop loop_ = TrainingLoop::NoOverlap;

    // SoA evaluation layout (built by buildSoA).
    std::size_t numDims_ = 0;
    std::vector<Bytes> traffic_;         ///< Multi-span op traffic.
    std::vector<std::uint32_t> entryDim_; ///< Dim of each traffic entry.
    std::vector<std::uint32_t> opOffset_; ///< Entry extents; numOps + 1.
    std::vector<LayerMeta> meta_;          ///< One per run of layers.
    std::uint32_t maxRunOps_ = 0; ///< Most multi-span ops in one run.

    /**
     * Per-dim traffic sums of single-span ops, numDims_ values per
     * row: one row per (run, phase) for TpDpOverlap.
     */
    std::vector<Bytes> singles_;

    // NoOverlap whole-workload aggregates, summed layer by layer: every
    // phase time adds, so only the multi-span ops need the run loop.
    Seconds totalCompute_ = 0.0;
    std::vector<Bytes> allSingles_;    ///< numDims_ traffic sums.
};

/**
 * Estimates training time for workloads on one network.
 *
 * All query methods are const and touch no mutable state, so a single
 * estimator may be shared across solver threads (every registered
 * timing backend is thread-safe; core/timing_backend.hh).
 */
class TrainingEstimator
{
  public:
    TrainingEstimator(Network net, EstimatorOptions options = {});

    const Network& network() const { return net_; }
    const EstimatorOptions& options() const { return options_; }

    /**
     * True when timing comes from the built-in analytical model (the
     * default backend) — the precondition for compile() and the SoA
     * objective fast path.
     */
    bool usesAnalyticalTiming() const { return backend_ == nullptr; }

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

    /** End-to-end iteration time. */
    Seconds estimate(const Workload& w, const BwConfig& bw) const;

    /**
     * Precompile @p w for fast repeated evaluation. Only valid for the
     * built-in analytical model (the default timing backend).
     */
    CompiledWorkload compile(const Workload& w) const;

    /** Full breakdown (slower; for reporting). */
    EstimateDetail detail(const Workload& w, const BwConfig& bw) const;

  private:
    /**
     * The layer walk behind estimate() and detail(): checks @p bw's
     * rank and @p w's NPU count against the network, returns the
     * iteration time and, when @p detail is set, accumulates its
     * phase, exposed-comm and per-dimension sums.
     */
    Seconds walkLayers(const Workload& w, const BwConfig& bw,
                       EstimateDetail* detail) const;

    /** Timing of one collective via the configured model. */
    CollectiveTiming timingOf(CollectiveType type, Bytes size,
                              const std::vector<DimSpan>& spans,
                              const BwConfig& bw) const;

    /**
     * One estimate()/detail() call's table of timings, keyed by each
     * op's exact (type, scope, size bits), so every distinct
     * collective is timed once per call under any timing model
     * (compile() dedups the same way).
     */
    struct CallTimings;

    Seconds commListTime(const std::vector<CommOp>& ops,
                         const ScopeSpans& spans, const BwConfig& bw,
                         EstimateDetail* detail,
                         CallTimings& timings) const;

    Network net_;
    EstimatorOptions options_;

    /**
     * Resolved non-default timing backend; nullptr for the default
     * analytical model. Either way each call times every distinct
     * collective once through its CallTimings.
     */
    const TimingBackend* backend_ = nullptr;
};

} // namespace libra

#endif // LIBRA_CORE_ESTIMATOR_HH
