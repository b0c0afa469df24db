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
 * simd_kernels_impl.h. The fiddly parts:
 *  - 64-bit multiply by the xorshift64* constant without a 64-bit
 *    vector multiply instruction (pre-AVX-512 x86 has none): three
 *    32x32->64 partial products, with the high-of-high product
 *    dropped because it shifts past bit 63.
 *  - Exact uint64 -> double for the 53-bit value v >> 11: split into
 *    a 21-bit high and 32-bit low half, convert each exactly via the
 *    2^52 magic-number trick, recombine as hi * 2^32 + lo (exact:
 *    hi * 2^32 needs <= 21 significand bits, the sum <= 53). The
 *    final * 2^-53 is a power-of-two scale, also exact.
 *  - std::max(0.0, x) and `u < pivot ? a : b` replicated with
 *    compare + blend so NaN and signed-zero lanes behave exactly like
 *    the scalar operators.
 */

#include <cmath>
#include <cstddef>
#include <cstdint>

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
    using VU = __m256i;

    static VF
    bcast(double v)
    {
        return _mm256_set1_pd(v);
    }
    static VF
    loadu(const double *p)
    {
        return _mm256_loadu_pd(p);
    }
    static VF
    loadStride(const double *p, std::size_t stride)
    {
        return _mm256_set_pd(p[3 * stride], p[2 * stride], p[stride],
                             p[0]);
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
    max0(VF a)
    {
        // vmaxpd(a, 0): second operand on NaN and the (+0, -0) tie,
        // exactly std::max(0.0, x).
        return _mm256_max_pd(a, _mm256_setzero_pd());
    }
    static VF
    blendLess(VF u, VF pivot, VF lo, VF hi)
    {
        const VF mask = _mm256_cmp_pd(u, pivot, _CMP_LT_OQ);
        return _mm256_blendv_pd(hi, lo, mask);
    }
    static VF
    within(VF x, VF lo, VF hi, bool lo_exclusive)
    {
        const VF above =
            lo_exclusive ? _mm256_cmp_pd(x, lo, _CMP_GT_OQ)
                         : _mm256_cmp_pd(x, lo, _CMP_GE_OQ);
        return _mm256_and_pd(above, _mm256_cmp_pd(x, hi, _CMP_LE_OQ));
    }
    static bool
    allLanes(VF mask)
    {
        return _mm256_movemask_pd(mask) == 0xF;
    }
    static VU
    fromLanes(const std::uint64_t *lane)
    {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(lane));
    }
    static std::uint64_t
    lane0(VU v)
    {
        return static_cast<std::uint64_t>(
            _mm_cvtsi128_si64(_mm256_castsi256_si128(v)));
    }
    static VU
    xorshiftStep(VU x)
    {
        x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 12));
        x = _mm256_xor_si256(x, _mm256_slli_epi64(x, 25));
        x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
        return x;
    }
    static VU
    mulM(VU x)
    {
        const VU mlo = _mm256_set1_epi64x(
            static_cast<long long>(kXorshiftMultiplier & 0xFFFFFFFFULL));
        const VU mhi = _mm256_set1_epi64x(
            static_cast<long long>(kXorshiftMultiplier >> 32));
        const VU lolo = _mm256_mul_epu32(x, mlo);
        const VU hilo =
            _mm256_mul_epu32(_mm256_srli_epi64(x, 32), mlo);
        const VU lohi = _mm256_mul_epu32(x, mhi);
        return _mm256_add_epi64(
            lolo,
            _mm256_slli_epi64(_mm256_add_epi64(hilo, lohi), 32));
    }
    static VF
    u32InU64ToDouble(VU v)
    {
        const VU magic = _mm256_set1_epi64x(0x4330000000000000LL);
        return _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(v, magic)),
            _mm256_set1_pd(0x1.0p52));
    }
    static VF
    unitFromValue(VU v)
    {
        const VU u = _mm256_srli_epi64(v, 11);
        const VU hi = _mm256_srli_epi64(u, 32);
        const VU lo =
            _mm256_and_si256(u, _mm256_set1_epi64x(0xFFFFFFFFLL));
        const VF recombined =
            _mm256_add_pd(_mm256_mul_pd(u32InU64ToDouble(hi),
                                        _mm256_set1_pd(0x1.0p32)),
                          u32InU64ToDouble(lo));
        return _mm256_mul_pd(recombined, _mm256_set1_pd(0x1.0p-53));
    }
};

} // namespace

const KernelTable *
avx2Kernels()
{
    static const KernelTable table = {
        &fillUnitsT<LanesAvx2>,
        &transformUniformT<LanesAvx2>,
        &transformTriangularT<LanesAvx2>,
        &evalRatioT<LanesAvx2>,
        &allWithinT<LanesAvx2>,
        &jobUnitsT<LanesAvx2>,
        &powerGridKwT<LanesAvx2>,
        &windowCostsT<LanesAvx2>,
        &argminFirstT<LanesAvx2>,
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
