/**
 * @file
 * Batched-estimator kernel dispatch.
 *
 * The per-ISA kernels live in their own translation units
 * (eval_kernels_<isa>.cc), compiled only when the LIBRA_SIMD CMake
 * option selects them and always with that ISA's -m flags plus
 * -ffp-contract=off. This file — compiled with the plain target flags
 * — lists the compiled-in kernels the running CPU actually supports,
 * widest first, ending with the scalar one-candidate-at-a-time path,
 * whose one-wide kernel instance is CompiledWorkload::estimate();
 * estimateBatch runs the first entry.
 * Every kernel is bit-identical to it, so the choice is a pure
 * throughput knob: results, goldens, and cache keys never depend on it.
 */

#include <array>
#include <utility>

#include "core/estimator.hh"
#include "core/eval_kernels_impl.hh"

namespace libra {
namespace detail {

#if defined(LIBRA_SIMD_HAVE_AVX512)
void estimateBatchAvx512(const CompiledWorkload& cw, const BwConfig* bws,
                         std::size_t n, Seconds* out);
#endif
#if defined(LIBRA_SIMD_HAVE_AVX2)
void estimateBatchAvx2(const CompiledWorkload& cw, const BwConfig* bws,
                       std::size_t n, Seconds* out);
#endif
#if defined(LIBRA_SIMD_HAVE_NEON)
void estimateBatchNeon(const CompiledWorkload& cw, const BwConfig* bws,
                       std::size_t n, Seconds* out);
#endif

} // namespace detail

std::span<const EstimateKernel>
estimateKernels()
{
    // A fixed array, not a vector: the first estimateBatch call must
    // not allocate (test_solver_allocations counts solver stages).
    static const auto table = [] {
        std::array<EstimateKernel, 4> k{};
        std::size_t n = 0;
#if defined(LIBRA_SIMD_HAVE_AVX512)
        if (__builtin_cpu_supports("avx512f"))
            k[n++] = {"avx512", detail::estimateBatchAvx512};
#endif
#if defined(LIBRA_SIMD_HAVE_AVX2)
        if (__builtin_cpu_supports("avx2"))
            k[n++] = {"avx2", detail::estimateBatchAvx2};
#endif
#if defined(LIBRA_SIMD_HAVE_NEON)
        k[n++] = {"neon", detail::estimateBatchNeon};
#endif
        k[n++] = {"scalar", detail::BatchKernel<simd::ScalarLane>::run};
        return std::pair{k, n};
    }();
    return {table.first.data(), table.second};
}

const char*
activeSimdKernel()
{
    return estimateKernels().front().name;
}

Seconds
CompiledWorkload::estimate(const BwConfig& bw) const
{
    Seconds out;
    detail::BatchKernel<simd::ScalarLane>::run(*this, &bw, 1, &out);
    return out;
}

void
CompiledWorkload::estimateBatch(const BwConfig* bws, std::size_t n,
                                Seconds* out) const
{
    estimateKernels().front().run(*this, bws, n, out);
}

} // namespace libra
