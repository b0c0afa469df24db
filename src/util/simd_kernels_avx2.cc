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
 * branch.
 */

#include <cstddef>

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
    blendLess(VF u, VF pivot, VF lo, VF hi)
    {
        const VF mask = _mm256_cmp_pd(u, pivot, _CMP_LT_OQ);
        return _mm256_blendv_pd(hi, lo, mask);
    }
};

} // namespace

const KernelTable *
avx2Kernels()
{
    static const KernelTable table = {
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
