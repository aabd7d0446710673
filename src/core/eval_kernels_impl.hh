/**
 * @file
 * Generic candidate-major batch kernel for CompiledWorkload.
 *
 * BatchKernel<Lane> evaluates Lane::kWidth bandwidth configurations at
 * once, with the SIMD lanes laid across *candidates*: lane l of every
 * vector operation holds candidate l's value, and the sequence of
 * operations applied to each lane is exactly the sequence
 * CompiledWorkload::estimate() applies to a single candidate — same
 * association, same order, same max-update convention. Combined with
 * the per-lane IEEE guarantees of the Lane wrappers (core/simd.hh) and
 * the no-FMA-contraction build flags on the kernel translation units,
 * every batched result is bit-identical to the scalar path, which is
 * why goldens never move when the SIMD kernels switch on.
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
     * which is bit-identical by the lane contract.
     */
    static void
    run(const CompiledWorkload& cw, const BwConfig* bws, std::size_t n,
        Seconds* out)
    {
        constexpr std::size_t kInlineDims = 16;
        alignas(64) double recipInline[kInlineDims * kWidth];
        std::vector<double> recipHeap;
        double* recipT = recipInline;
        if (cw.numDims_ > kInlineDims) {
            recipHeap.resize(cw.numDims_ * kWidth);
            recipT = recipHeap.data();
        }
        std::size_t i = 0;
        if constexpr (kWidth > 1) {
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
            Lane total = Lane::broadcast(cw.totalCompute_) +
                         multiOps(cw, cw.allMulti_, recipT);
            for (std::size_t d = 0; d < dims; ++d) {
                total = total + Lane::broadcast(cw.allSingles_[d]) *
                                    Lane::load(recipT + d * kWidth);
            }
            total.store(out);
            return;
        }

        Lane total = Lane::broadcast(0.0);
        const std::uint32_t dims32 = static_cast<std::uint32_t>(dims);
        for (const auto& layer : cw.meta_) {
            Lane fwdComm = singles(cw, layer.singlesRow, recipT) +
                           multiOps(cw, layer.fwd, recipT);
            Lane igComm =
                singles(cw, layer.singlesRow + dims32, recipT) +
                multiOps(cw, layer.ig, recipT);
            Lane wgComm =
                singles(cw, layer.singlesRow + 2 * dims32, recipT) +
                multiOps(cw, layer.wg, recipT);
            // std::max(igComm, rhs) == (rhs > igComm ? rhs : igComm).
            Lane tail = Lane::maxGt(
                Lane::broadcast(layer.wgCompute) + wgComm, igComm);
            total = total +
                    (((Lane::broadcast(layer.fwdCompute) + fwdComm) +
                      Lane::broadcast(layer.igCompute)) +
                     tail);
        }
        total.store(out);
    }

    /** Lane transliteration of CompiledWorkload::multiOpsTime. */
    static Lane
    multiOps(const CompiledWorkload& cw, CompiledWorkload::PhaseRange r,
             const double* recipT)
    {
        const Bytes* traffic = cw.traffic_.data();
        const std::uint32_t* dim = cw.entryDim_.data();
        const std::uint32_t* offset = cw.opOffset_.data();
        Lane total = Lane::broadcast(0.0);
        for (std::uint32_t op = r.begin; op < r.end; ++op) {
            Lane worst = Lane::broadcast(0.0);
            for (std::uint32_t k = offset[op]; k < offset[op + 1];
                 ++k) {
                Lane t = Lane::broadcast(traffic[k]) *
                         Lane::load(recipT + dim[k] * kWidth);
                worst = Lane::maxGt(t, worst);
            }
            total = total + worst;
        }
        return total;
    }

    /** Lane transliteration of CompiledWorkload::singlesTime. */
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
