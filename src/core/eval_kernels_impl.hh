/**
 * @file
 * Generic candidate-major batch kernel for CompiledWorkload.
 *
 * BatchKernel<Lane> evaluates Lane::kWidth bandwidth configurations at
 * once, with the SIMD lanes laid across *candidates*: lane l of every
 * vector operation holds candidate l's value. Every instance applies
 * the same sequence of operations to each lane, and the one-wide
 * ScalarLane instance is CompiledWorkload::estimate() itself. Combined
 * with the per-lane IEEE guarantees of the Lane wrappers
 * (core/simd.hh) and the no-FMA-contraction build flags on the kernel
 * translation units, every batched result is bit-identical to the
 * scalar path, which is why goldens never move when the SIMD kernels
 * switch on.
 *
 * A run of identical layers (CompiledWorkload::LayerMeta::repeat) is
 * evaluated once; its term, or under NoOverlap its op times in order,
 * is then added `repeat` times. That is the very sequence of adds a
 * walk over every layer performs, on the same values, so collapsing
 * runs changes no bit.
 *
 * This header is included by one translation unit per ISA
 * (eval_kernels_<isa>.cc), each compiled with that ISA's -m flags plus
 * -ffp-contract=off; the dispatcher (eval_kernels.cc) picks the widest
 * kernel the running CPU supports.
 */

#ifndef LIBRA_CORE_EVAL_KERNELS_IMPL_HH
#define LIBRA_CORE_EVAL_KERNELS_IMPL_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/estimator.hh"
#include "core/simd.hh"

namespace libra {
namespace detail {

/**
 * Per-call scratch array of @p N inline elements, spilling to the heap
 * when more are asked for. Contents are uninitialized.
 */
template <typename T, std::size_t N>
class ScratchBuffer
{
  public:
    T*
    get(std::size_t n)
    {
        if (n <= N)
            return inline_;
        if (heap_.size() < n)
            heap_.resize(n);
        return heap_.data();
    }

  private:
    T inline_[N];
    std::vector<T> heap_;
};

template <typename Lane>
struct BatchKernel
{
    static constexpr std::size_t kWidth = Lane::kWidth;

    /**
     * Evaluate @p n candidates: full kWidth-wide blocks through the
     * lane kernel, then a remainder of two or more as one padded
     * block whose unused lanes repeat the last real candidate (their
     * outputs are dropped). Lanes never interact, so padding changes
     * no result. A lone leftover candidate takes the scalar path,
     * which is bit-identical by the lane contract; the one-wide scalar
     * instance itself never leaves one.
     */
    static void
    run(const CompiledWorkload& cw, const BwConfig* bws, std::size_t n,
        Seconds* out)
    {
        ScratchBuffer<double, 16 * kWidth> recipBuf;
        double* recipT = recipBuf.get(cw.numDims_ * kWidth);
        std::size_t i = 0;
        const BwConfig* lanes[kWidth] = {};
        for (; i + kWidth <= n; i += kWidth) {
            for (std::size_t l = 0; l < kWidth; ++l)
                lanes[l] = bws + i + l;
            block(cw, lanes, out + i, recipT);
        }
        const std::size_t rest = n - i;
        if (rest >= 2) {
            alignas(64) Seconds padded[kWidth] = {};
            for (std::size_t l = 0; l < kWidth; ++l)
                lanes[l] = bws + i + std::min(l, rest - 1);
            block(cw, lanes, padded, recipT);
            for (std::size_t l = 0; l < rest; ++l)
                out[i + l] = padded[l];
            i = n;
        }
        for (; i < n; ++i)
            out[i] = cw.estimate(bws[i]);
    }

  private:
    /**
     * One kWidth-candidate block; lane l evaluates *lanes[l]. @p recipT
     * is the transposed reciprocal scratch: recipT[d * kWidth + lane].
     */
    static void
    block(const CompiledWorkload& cw, const BwConfig* const* lanes,
          Seconds* out, double* recipT)
    {
        const std::size_t dims = cw.numDims_;

        // recip[d] = 1.0 / (bw[d] * kGiga), one vector mul + div per
        // dimension — the exact scalar operation pair per lane.
        alignas(64) double pack[kWidth];
        const Lane one = Lane::broadcast(1.0);
        const Lane giga = Lane::broadcast(kGiga);
        for (std::size_t d = 0; d < dims; ++d) {
            for (std::size_t l = 0; l < kWidth; ++l)
                pack[l] = (*lanes[l])[d];
            (one / (Lane::load(pack) * giga))
                .store(recipT + d * kWidth);
        }

        if (cw.loop_ == TrainingLoop::NoOverlap) {
            // Everything adds. A run's op times are computed once, then
            // added in op order `repeat` times. The scratch is sized
            // before the loop: a possible heap call inside it would
            // force `multi` out of its register for the whole loop.
            ScratchBuffer<Lane, 32> worstBuf;
            Lane* worst = worstBuf.get(cw.maxRunOps_);
            Lane multi = Lane::broadcast(0.0);
            for (const auto& run : cw.meta_) {
                const std::uint32_t ops = run.wg.end - run.fwd.begin;
                for (std::uint32_t i = 0; i < ops; ++i)
                    worst[i] = opTime(cw, run.fwd.begin + i, recipT);
                for (std::uint32_t k = 0; k < run.repeat; ++k)
                    for (std::uint32_t i = 0; i < ops; ++i)
                        multi = multi + worst[i];
            }
            Lane total = Lane::broadcast(cw.totalCompute_) + multi;
            for (std::size_t d = 0; d < dims; ++d) {
                total = total + Lane::broadcast(cw.allSingles_[d]) *
                                    Lane::load(recipT + d * kWidth);
            }
            total.store(out);
            return;
        }

        // One layer time per run, added once per layer of the run.
        Lane total = Lane::broadcast(0.0);
        const std::uint32_t dims32 = static_cast<std::uint32_t>(dims);
        for (const auto& run : cw.meta_) {
            Lane fwdComm = singles(cw, run.singlesRow, recipT) +
                           multiOps(cw, run.fwd, recipT);
            Lane igComm = singles(cw, run.singlesRow + dims32, recipT) +
                          multiOps(cw, run.ig, recipT);
            Lane wgComm =
                singles(cw, run.singlesRow + 2 * dims32, recipT) +
                multiOps(cw, run.wg, recipT);
            // Backward tail: TP comm overlaps DP compute + DP comm.
            Lane tail = Lane::maxGt(
                Lane::broadcast(run.wgCompute) + wgComm, igComm);
            Lane layer = ((Lane::broadcast(run.fwdCompute) + fwdComm) +
                          Lane::broadcast(run.igCompute)) +
                         tail;
            for (std::uint32_t k = 0; k < run.repeat; ++k)
                total = total + layer;
        }
        total.store(out);
    }

    /** Bottleneck time of multi-span op @p op: max over its entries. */
    static Lane
    opTime(const CompiledWorkload& cw, std::uint32_t op,
           const double* recipT)
    {
        Lane worst = Lane::broadcast(0.0);
        for (std::uint32_t k = cw.opOffset_[op]; k < cw.opOffset_[op + 1];
             ++k) {
            Lane t = Lane::broadcast(cw.traffic_[k]) *
                     Lane::load(recipT + cw.entryDim_[k] * kWidth);
            worst = Lane::maxGt(t, worst);
        }
        return worst;
    }

    /** Bottleneck-time sum of the multi-span ops in @p r. */
    static Lane
    multiOps(const CompiledWorkload& cw, CompiledWorkload::PhaseRange r,
             const double* recipT)
    {
        Lane total = Lane::broadcast(0.0);
        for (std::uint32_t op = r.begin; op < r.end; ++op)
            total = total + opTime(cw, op, recipT);
        return total;
    }

    /** Dot of a singles_ row with the reciprocal-bandwidth vector. */
    static Lane
    singles(const CompiledWorkload& cw, std::uint32_t row,
            const double* recipT)
    {
        const Bytes* s = cw.singles_.data() + row;
        Lane total = Lane::broadcast(0.0);
        for (std::size_t d = 0; d < cw.numDims_; ++d) {
            total = total +
                    Lane::broadcast(s[d]) * Lane::load(recipT + d * kWidth);
        }
        return total;
    }
};

} // namespace detail
} // namespace libra

#endif // LIBRA_CORE_EVAL_KERNELS_IMPL_HH
