/**
 * @file
 * The 4-lane AVX2 kernel tier. This is the only translation unit
 * compiled with -mavx2 (set in src/util/CMakeLists.txt when the
 * compiler supports it); everything here has internal linkage or is
 * reached through the table pointer, and avx2Kernels() is only
 * dereferenced after the runtime CPU check in util/simd.cc, so no
 * AVX2 instruction can leak onto a CPU without the feature. Compiled
 * without -mfma on purpose: contraction would break the bit-identity
 * contract (DESIGN.md §11), so every multiply and add stays a
 * separate, correctly rounded instruction.
 *
 * The lane policy implements the surface documented in
 * simd_kernels_impl.h; `u < pivot ? a : b` is replicated with an
 * ordered compare + blend so NaN lanes take the scalar operator's
 * branch. The integer half of the surface (bit casts, and/or/xor,
 * 64-bit shifts) is all plain AVX2; no kernel needs a 64-bit
 * int <-> double conversion, which AVX2 lacks.
 */

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/simd_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace act::util::simd {

namespace {

#include "util/simd_kernels_impl.h"

struct LanesAvx2
{
    static constexpr std::size_t kLanes = 4;
    using VF = __m256d;
    using VI = __m256i;

    static VF
    bcast(double v)
    {
        return _mm256_set1_pd(v);
    }
    static VI
    bcastBits(std::uint64_t v)
    {
        return _mm256_set1_epi64x(static_cast<long long>(v));
    }
    static VF
    loadu(const double *p)
    {
        return _mm256_loadu_pd(p);
    }
    static void
    storeu(double *p, VF v)
    {
        _mm256_storeu_pd(p, v);
    }
    static VF
    add(VF a, VF b)
    {
        return _mm256_add_pd(a, b);
    }
    static VF
    sub(VF a, VF b)
    {
        return _mm256_sub_pd(a, b);
    }
    static VF
    mul(VF a, VF b)
    {
        return _mm256_mul_pd(a, b);
    }
    static VF
    div(VF a, VF b)
    {
        return _mm256_div_pd(a, b);
    }
    static VF
    sqrt(VF a)
    {
        return _mm256_sqrt_pd(a);
    }
    static VF
    blendLess(VF u, VF pivot, VF lo, VF hi)
    {
        const VF mask = _mm256_cmp_pd(u, pivot, _CMP_LT_OQ);
        return _mm256_blendv_pd(hi, lo, mask);
    }
    static VF
    min(VF a, VF b)
    {
        // minpd returns its second operand unless a < b: exactly
        // a < b ? a : b, NaN and signed-zero lanes included.
        return _mm256_min_pd(a, b);
    }
    static VI
    bits(VF v)
    {
        return _mm256_castpd_si256(v);
    }
    static VF
    fromBits(VI v)
    {
        return _mm256_castsi256_pd(v);
    }
    static VI
    andBits(VI a, VI b)
    {
        return _mm256_and_si256(a, b);
    }
    static VI
    orBits(VI a, VI b)
    {
        return _mm256_or_si256(a, b);
    }
    static VI
    xorBits(VI a, VI b)
    {
        return _mm256_xor_si256(a, b);
    }
    template <int k>
    static VI
    shl(VI v)
    {
        return _mm256_slli_epi64(v, k);
    }
    template <int k>
    static VI
    shr(VI v)
    {
        return _mm256_srli_epi64(v, k);
    }
    static VF
    selectSign(VI m, VF a, VF b)
    {
        // blendv reads each lane's top bit.
        return _mm256_blendv_pd(b, a, _mm256_castsi256_pd(m));
    }
};

} // namespace

const KernelTable *
avx2Kernels()
{
    static const KernelTable table = {
        &fleetBlockT<LanesAvx2>,
        &logNormalT<LanesAvx2>,
    };
    return &table;
}

} // namespace act::util::simd

#else

namespace act::util::simd {

const KernelTable *
avx2Kernels()
{
    return nullptr;
}

} // namespace act::util::simd

#endif
