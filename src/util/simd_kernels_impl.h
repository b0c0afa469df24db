/**
 * @file
 * Width-generic implementations of the util/simd_kernels.h kernels,
 * parameterized over a lane-type policy `L` (LanesAvx2 in
 * simd_kernels_avx2.cc implements the surface). NOT a normal header: it
 * contains no include guard and no #include directives, and is meant
 * to be included INSIDE an anonymous namespace within
 * act::util::simd, in a translation unit that already included
 * <cstddef> and util/simd_kernels.h.
 *
 * Internal linkage is load-bearing, not style: the AVX2 translation
 * unit compiles with -mavx2, so any inline function it shared with
 * another TU could be merged by the linker into a VEX-encoded copy
 * that faults on CPUs without AVX. Anonymous-namespace inclusion
 * gives every TU its own ISA-correct copies.
 *
 * Bit-identity rules (DESIGN.md §11): every expression below keeps
 * the scalar kernel's association and operation set -- no FMA, no
 * reassociation, no fast-math identities. Vector add/sub/mul are
 * IEEE-754 correctly rounded per lane, so equal expression shapes
 * give equal bits.
 *
 * Policy surface `L` must provide:
 *   kLanes                          lane count
 *   VF                              double vector type
 *   bcast(double) -> VF
 *   loadu(const double*) -> VF      unaligned load of kLanes doubles
 *   storeu(double*, VF)
 *   add/sub/mul(VF, VF) -> VF
 *   blendLess(u, pivot, lo, hi)     per-lane u < pivot ? lo : hi
 */

/**
 * Window costs, segmented: [0, count) is cut at the points where the
 * cyclic start wraps past n or the wrap/non-wrap branch flips, so
 * within a segment every lane takes the same branch and all loads are
 * contiguous. Both branch bodies keep the exact scalar association --
 * base + (hi - lo) vs base + ((prefix[n] - lo) + hi') -- which is what
 * makes the vector outputs bit-identical to the scalar scan.
 */
template <class L>
void
windowCostsT(const WindowCostProblem &pr, double *out)
{
    constexpr std::size_t W = L::kLanes;
    const std::size_t n = pr.n;
    const double *prefix = pr.prefix;
    const double *grams2x = pr.grams2x;
    const bool tail = pr.tail_hours > 0.0;
    const typename L::VF vbase = L::bcast(pr.base);
    const typename L::VF vstep = L::bcast(pr.step);
    const typename L::VF vtail = L::bcast(pr.tail_hours);
    const typename L::VF vpn = L::bcast(prefix[n]);
    std::size_t k = 0;
    std::size_t s0 = pr.start0 % n;
    while (k < pr.count) {
        const bool nonwrap = s0 + pr.rem <= n;
        // Last non-wrap start is n - rem, so that segment ends at
        // n - rem + 1 (clamped to n when rem == 0); a wrap segment
        // runs until s0 cycles back to 0.
        std::size_t seg_end = n;
        if (nonwrap && pr.rem > 0 && n - pr.rem + 1 < n)
            seg_end = n - pr.rem + 1;
        std::size_t len = seg_end - s0;
        if (len > pr.count - k)
            len = pr.count - k;
        std::size_t i = 0;
        if (nonwrap) {
            for (; i + W <= len; i += W) {
                const typename L::VF sum = L::add(
                    vbase,
                    L::sub(L::loadu(prefix + s0 + pr.rem + i),
                           L::loadu(prefix + s0 + i)));
                typename L::VF w = L::mul(sum, vstep);
                if (tail)
                    w = L::add(
                        w, L::mul(L::loadu(grams2x + s0 + pr.rem + i),
                                  vtail));
                L::storeu(out + k + i, w);
            }
            for (; i < len; ++i) {
                const double sum =
                    pr.base + (prefix[s0 + pr.rem + i] -
                               prefix[s0 + i]);
                double w = sum * pr.step;
                if (tail)
                    w += grams2x[s0 + pr.rem + i] * pr.tail_hours;
                out[k + i] = w;
            }
        } else {
            for (; i + W <= len; i += W) {
                const typename L::VF sum = L::add(
                    vbase,
                    L::add(L::sub(vpn, L::loadu(prefix + s0 + i)),
                           L::loadu(prefix + s0 + pr.rem - n + i)));
                typename L::VF w = L::mul(sum, vstep);
                if (tail)
                    w = L::add(
                        w, L::mul(L::loadu(grams2x + s0 + pr.rem + i),
                                  vtail));
                L::storeu(out + k + i, w);
            }
            for (; i < len; ++i) {
                const double sum =
                    pr.base + ((prefix[n] - prefix[s0 + i]) +
                               prefix[s0 + pr.rem - n + i]);
                double w = sum * pr.step;
                if (tail)
                    w += grams2x[s0 + pr.rem + i] * pr.tail_hours;
                out[k + i] = w;
            }
        }
        k += len;
        s0 += len;
        if (s0 >= n)
            s0 -= n;
    }
}

/**
 * First-index argmin with strict-< scan semantics. Lanes track the
 * running (value, index) of their index-stride-W subsequence -- the
 * per-lane strict < keeps each lane's earliest minimum -- then the
 * horizontal reduction picks the lexicographically smallest
 * (value, index) pair, which is exactly the scalar left-to-right
 * strict-< scan's answer. Scalar-tail indices all exceed every lane
 * index, so the plain strict < keeps ties with the vector part.
 */
template <class L>
std::size_t
argminFirstT(const double *p, std::size_t n)
{
    constexpr std::size_t W = L::kLanes;
    std::size_t best = 0;
    double best_value = p[0];
    std::size_t s = 1;
    if (n >= 2 * W) {
        double iota[W];
        for (std::size_t j = 0; j < W; ++j)
            iota[j] = static_cast<double>(j);
        typename L::VF vvalue = L::loadu(p);
        typename L::VF vindex = L::loadu(iota);
        typename L::VF vcursor = vindex;
        const typename L::VF vw =
            L::bcast(static_cast<double>(W));
        std::size_t k = W;
        for (; k + W <= n; k += W) {
            const typename L::VF v = L::loadu(p + k);
            vcursor = L::add(vcursor, vw);
            // Index blend first: both blends must see the same
            // pre-update running minimum.
            vindex = L::blendLess(v, vvalue, vcursor, vindex);
            vvalue = L::blendLess(v, vvalue, v, vvalue);
        }
        double values[W];
        double indices[W];
        L::storeu(values, vvalue);
        L::storeu(indices, vindex);
        best = static_cast<std::size_t>(indices[0]);
        best_value = values[0];
        for (std::size_t j = 1; j < W; ++j) {
            const auto index = static_cast<std::size_t>(indices[j]);
            if (values[j] < best_value ||
                (values[j] == best_value && index < best)) {
                best_value = values[j];
                best = index;
            }
        }
        s = k;
    }
    for (; s < n; ++s) {
        if (p[s] < best_value) {
            best_value = p[s];
            best = s;
        }
    }
    return best;
}
