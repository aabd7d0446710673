/**
 * @file
 * Batched-estimator kernel dispatch.
 *
 * The per-ISA kernels live in their own translation units
 * (eval_kernels_<isa>.cc), compiled only when the LIBRA_SIMD CMake
 * option selects them and always with that ISA's -m flags plus
 * -ffp-contract=off. This file — compiled with the plain target flags
 * — picks the widest compiled-in kernel the running CPU actually
 * supports, falling back to the scalar one-candidate-at-a-time path,
 * whose one-wide kernel instance is CompiledWorkload::estimate().
 * Every kernel is bit-identical to it, so the choice is a pure
 * throughput knob: results, goldens, and cache keys never depend on it.
 */

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

namespace {

enum class KernelIsa { Scalar, Avx2, Avx512, Neon };

KernelIsa
pickKernel()
{
#if defined(LIBRA_SIMD_HAVE_AVX512)
    if (__builtin_cpu_supports("avx512f"))
        return KernelIsa::Avx512;
#endif
#if defined(LIBRA_SIMD_HAVE_AVX2)
    if (__builtin_cpu_supports("avx2"))
        return KernelIsa::Avx2;
#endif
#if defined(LIBRA_SIMD_HAVE_NEON)
    return KernelIsa::Neon;
#endif
    return KernelIsa::Scalar;
}

const KernelIsa kActiveKernel = pickKernel();

} // namespace

const char*
activeSimdKernel()
{
    switch (kActiveKernel) {
      case KernelIsa::Avx512:
        return "avx512";
      case KernelIsa::Avx2:
        return "avx2";
      case KernelIsa::Neon:
        return "neon";
      case KernelIsa::Scalar:
        return "scalar";
    }
    return "scalar";
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
    switch (kActiveKernel) {
#if defined(LIBRA_SIMD_HAVE_AVX512)
      case KernelIsa::Avx512:
        detail::estimateBatchAvx512(*this, bws, n, out);
        return;
#endif
#if defined(LIBRA_SIMD_HAVE_AVX2)
      case KernelIsa::Avx2:
        detail::estimateBatchAvx2(*this, bws, n, out);
        return;
#endif
#if defined(LIBRA_SIMD_HAVE_NEON)
      case KernelIsa::Neon:
        detail::estimateBatchNeon(*this, bws, n, out);
        return;
#endif
      default:
        detail::BatchKernel<simd::ScalarLane>::run(*this, bws, n, out);
        return;
    }
}

} // namespace libra
