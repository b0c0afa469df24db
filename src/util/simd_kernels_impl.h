/**
 * @file
 * Width-generic implementations of the util/simd_kernels.h kernels,
 * parameterized over a lane-type policy `L` (LanesAvx2 in
 * simd_kernels_avx2.cc implements the surface). NOT a normal header: it
 * contains no include guard and no #include directives, and is meant
 * to be included INSIDE an anonymous namespace within
 * act::util::simd, in a translation unit that already included
 * <cstddef>/<cstdint>/<cmath> and util/simd_kernels.h.
 *
 * Internal linkage is load-bearing, not style: the AVX2 translation
 * unit compiles with -mavx2, so any inline function it shared with
 * another TU could be merged by the linker into a VEX-encoded copy
 * that faults on CPUs without AVX. Anonymous-namespace inclusion
 * gives every TU its own ISA-correct copies.
 *
 * Bit-identity rules (DESIGN.md §11): every expression below keeps
 * the scalar kernel's association and operation set -- no FMA, no
 * reassociation, no fast-math identities. Vector add/sub/mul/div/sqrt
 * are IEEE-754 correctly rounded per lane, so equal expression shapes
 * give equal bits.
 *
 * Policy surface `L` must provide:
 *   kLanes                          lane count
 *   VF / VU                         double / uint64 vector types
 *   bcast(double) -> VF
 *   loadu(const double*) -> VF      unaligned load of kLanes doubles
 *   loadStride(const double*, s)    gather p[0], p[s], p[2s], ...
 *   storeu(double*, VF)
 *   add/sub/mul/div(VF, VF) -> VF
 *   sqrt(VF) -> VF
 *   max0(VF) -> VF                  per-lane std::max(0.0, x) semantics
 *   blendLess(u, pivot, lo, hi)     per-lane u < pivot ? lo : hi
 *   fromLanes(const uint64_t*) -> VU
 *   lane0(VU) -> uint64_t
 *   xorshiftStep(VU) -> VU          the three xor-shift state updates
 *   mulM(VU) -> VU                  lane-wise * kXorshiftMultiplier
 *   unitFromValue(VU) -> VF         exact double((v >> 11)) * 2^-53
 *   within(x, lo, hi, lo_excl)      all-ones mask per in-range lane
 *   allLanes(VF mask) -> bool       every lane of the mask set
 */

/** One scalar xorshift64* state update: Xorshift64Star::next()
 *  without the output multiply. */
inline std::uint64_t
scalarXorshiftStep(std::uint64_t x)
{
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    return x;
}

/** Xorshift64Star::nextUnit() of the state scalarXorshiftStep() just
 *  produced: the 53-bit top of state * M, scaled into [0, 1). The
 *  cast is exact (the operand is < 2^53). */
inline double
scalarXorshiftUnit(std::uint64_t state)
{
    return static_cast<double>((state * kXorshiftMultiplier) >> 11) *
           0x1.0p-53;
}

/** Minimum per-lane segment length for the segment-split fill path;
 *  below it the jump-matrix applications outweigh the chain win. */
inline constexpr std::size_t kSegmentSplitMin = 64;

/**
 * Unit-stream fill, two strategies by size, both emitting exactly the
 * scalar sequence (f is the xorshift update, v_k the k-th nextUnit()).
 *
 * Large n (segment >= kSegmentSplitMin): segment-split. The first
 * W*(n/W) values are cut into W equal segments and lane j starts at
 * f^(j*seg) via the GF(2) jump (xorshiftJump), so one vector f-step
 * advances all W segments at once -- the serial f-chain, the
 * bottleneck of the interleaved path, shrinks by W. Lane j's t-th
 * output is v_{j*seg + t + 1}, stored straight into its segment
 * through a W-wide spill (store-forwarded, no shuffle network
 * needed). The tail and returned state resume from f^(W*seg), one
 * cached jump from lane W-1's start.
 *
 * Small n: lane-interleaved blocks. Lane j of the state vector holds
 * f^(t*W + j); each block applies vector-f once -- the W lane outputs
 * are consecutive scalar values v_{t*W+1} .. v_{t*W+W} in lane order
 * -- then f another W-1 times to restore the invariant. The serial
 * chain runs at scalar cost; the win is vectorizing the output
 * multiply, the exact int->double conversion, and the downstream
 * transforms. Lane 0 tracks the scalar generator at block boundaries,
 * so the ragged tail (and returned state) is plain scalar stepping.
 */
template <class L>
std::uint64_t
fillUnitsT(std::uint64_t state, double *dst, std::size_t n)
{
    constexpr std::size_t W = L::kLanes;
    const std::size_t seg = n / W;
    if (seg >= kSegmentSplitMin) {
        std::uint64_t lane[W];
        lane[0] = state;
        for (std::size_t j = 1; j < W; ++j)
            lane[j] = xorshiftJump(lane[j - 1], seg);
        typename L::VU v = L::fromLanes(lane);
        double spill[W];
        for (std::size_t t = 0; t < seg; ++t) {
            v = L::xorshiftStep(v);
            L::storeu(spill, L::unitFromValue(L::mulM(v)));
            for (std::size_t j = 0; j < W; ++j)
                dst[j * seg + t] = spill[j];
        }
        state = xorshiftJump(lane[W - 1], seg);
        for (std::size_t filled = W * seg; filled < n; ++filled) {
            state = scalarXorshiftStep(state);
            dst[filled] = scalarXorshiftUnit(state);
        }
        return state;
    }
    std::size_t filled = 0;
    if (n >= 2 * W) {
        std::uint64_t lane[W];
        lane[0] = state;
        for (std::size_t j = 1; j < W; ++j)
            lane[j] = scalarXorshiftStep(lane[j - 1]);
        typename L::VU v = L::fromLanes(lane);
        const std::size_t blocks = n / W;
        for (std::size_t b = 0; b < blocks; ++b) {
            v = L::xorshiftStep(v);
            L::storeu(dst + b * W, L::unitFromValue(L::mulM(v)));
            for (std::size_t k = 1; k < W; ++k)
                v = L::xorshiftStep(v);
        }
        state = L::lane0(v);
        filled = blocks * W;
    }
    for (; filled < n; ++filled) {
        state = scalarXorshiftStep(state);
        dst[filled] = scalarXorshiftUnit(state);
    }
    return state;
}

/** Load kLanes consecutive samples of a unit column that is laid out
 *  at @p stride doubles per sample (1 = contiguous, otherwise the
 *  sample-major interleave the fused Monte Carlo chunk produces). */
template <class L>
typename L::VF
loadUnitsT(const double *units, std::size_t stride, std::size_t s)
{
    if (stride == 1)
        return L::loadu(units + s);
    return L::loadStride(units + s * stride, stride);
}

template <class L>
void
transformUniformT(const double *units, std::size_t stride,
                  std::size_t n, const UniformTransform &tr,
                  double *out)
{
    constexpr std::size_t W = L::kLanes;
    const typename L::VF va = L::bcast(tr.a);
    const typename L::VF vba = L::bcast(tr.ba);
    std::size_t s = 0;
    for (; s + W <= n; s += W) {
        const typename L::VF u = loadUnitsT<L>(units, stride, s);
        L::storeu(out + s, L::add(va, L::mul(vba, u)));
    }
    for (; s < n; ++s)
        out[s] = tr.a + tr.ba * units[s * stride];
}

template <class L>
void
transformTriangularT(const double *units, std::size_t stride,
                     std::size_t n, const TriangularTransform &tr,
                     double *out)
{
    constexpr std::size_t W = L::kLanes;
    const typename L::VF va = L::bcast(tr.a);
    const typename L::VF vb = L::bcast(tr.b);
    const typename L::VF vba = L::bcast(tr.ba);
    const typename L::VF vca = L::bcast(tr.ca);
    const typename L::VF vbc = L::bcast(tr.bc);
    const typename L::VF vpivot = L::bcast(tr.pivot);
    const typename L::VF vone = L::bcast(1.0);
    std::size_t s = 0;
    for (; s + W <= n; s += W) {
        const typename L::VF u = loadUnitsT<L>(units, stride, s);
        // Both branches of the scalar `u < pivot` are evaluated and
        // blended; each keeps its scalar association -- (u * ba) * ca
        // and ((1 - u) * ba) * bc -- and sqrt of a non-negative
        // operand never traps, so the untaken lane is harmless.
        const typename L::VF low =
            L::add(va, L::sqrt(L::mul(L::mul(u, vba), vca)));
        const typename L::VF high = L::sub(
            vb, L::sqrt(L::mul(L::mul(L::sub(vone, u), vba), vbc)));
        L::storeu(out + s, L::blendLess(u, vpivot, low, high));
    }
    for (; s < n; ++s) {
        const double u = units[s * stride];
        if (u < tr.pivot)
            out[s] = tr.a + std::sqrt(u * tr.ba * tr.ca);
        else
            out[s] = tr.b - std::sqrt((1.0 - u) * tr.ba * tr.bc);
    }
}

template <class L>
bool
allWithinT(const double *p, std::size_t n, double lo, double hi,
           bool lo_exclusive)
{
    constexpr std::size_t W = L::kLanes;
    const typename L::VF vlo = L::bcast(lo);
    const typename L::VF vhi = L::bcast(hi);
    std::size_t s = 0;
    for (; s + W <= n; s += W) {
        const typename L::VF mask =
            L::within(L::loadu(p + s), vlo, vhi, lo_exclusive);
        // One predictable branch per vector: validation data is
        // overwhelmingly all-valid, and a failure is fatal anyway.
        if (!L::allLanes(mask))
            return false;
    }
    for (; s < n; ++s) {
        const bool above = lo_exclusive ? (p[s] > lo) : (p[s] >= lo);
        if (!(above && p[s] <= hi))
            return false;
    }
    return true;
}

/**
 * Multi-stream draw matrix: lane j of the state vector is stream j's
 * own xorshift64* state, stepped in place -- no jumps, no interleave
 * bookkeeping, because the streams are independent by construction
 * (deriveSeed per job index). Draw-major output keeps each draw row
 * contiguous for the downstream column transforms.
 */
template <class L>
void
jobUnitsT(const std::uint64_t *states, std::size_t jobs,
          std::size_t draws, double *out)
{
    constexpr std::size_t W = L::kLanes;
    std::size_t j = 0;
    for (; j + W <= jobs; j += W) {
        typename L::VU v = L::fromLanes(states + j);
        for (std::size_t d = 0; d < draws; ++d) {
            v = L::xorshiftStep(v);
            L::storeu(out + d * jobs + j,
                      L::unitFromValue(L::mulM(v)));
        }
    }
    for (; j < jobs; ++j) {
        std::uint64_t state = states[j];
        for (std::size_t d = 0; d < draws; ++d) {
            state = scalarXorshiftStep(state);
            out[d * jobs + j] = scalarXorshiftUnit(state);
        }
    }
}

template <class L>
void
powerGridKwT(const double *u, std::size_t n, const PowerTransform &tr,
             double *out)
{
    constexpr std::size_t W = L::kLanes;
    const typename L::VF vidle = L::bcast(tr.idle_w);
    const typename L::VF vspan = L::bcast(tr.span_w);
    const typename L::VF vkilo = L::bcast(1000.0);
    const typename L::VF vpue = L::bcast(tr.pue);
    std::size_t s = 0;
    for (; s + W <= n; s += W) {
        const typename L::VF watts =
            L::add(vidle, L::mul(vspan, L::loadu(u + s)));
        L::storeu(out + s, L::mul(L::div(watts, vkilo), vpue));
    }
    for (; s < n; ++s)
        out[s] = (tr.idle_w + tr.span_w * u[s]) / 1000.0 * tr.pue;
}

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

/**
 * An Eq. 5 term lowered for the kernel loop: a (pointer, step) pair
 * where a bound column reads p + s (step 1) and a compiled constant
 * reads a local W-wide splat at step 0 -- so the vector loop is a
 * branchless unaligned load either way, exactly like the scalar
 * kernel's `p[s * stride]`.
 */
template <class L>
struct SplatTerm
{
    const double *p = nullptr;
    std::size_t step = 0;
    double splat[L::kLanes] = {};

    void
    set(const RatioTerm &term)
    {
        if (term.column) {
            p = term.values;
            step = 1;
        } else {
            for (std::size_t k = 0; k < L::kLanes; ++k)
                splat[k] = term.values[0];
            p = splat;
            step = 0;
        }
    }
};

template <class L>
void
evalRatioT(const RatioTerms &t, std::size_t n, double *out)
{
    constexpr std::size_t W = L::kLanes;
    SplatTerm<L> ci, epa, gpa, mpa, yield, abatement;
    ci.set(t.ci);
    epa.set(t.epa);
    gpa.set(t.gpa);
    mpa.set(t.mpa);
    yield.set(t.yield);
    abatement.set(t.abatement);

    std::size_t s = 0;
    if (t.recompute_gpa) {
        // gpa95 + (gpa99 - gpa95) * t with t = (ab - 0.95) / 0.04...:
        // both the lerp difference and the denominator are loop
        // constants in the scalar kernel too (compile-time folded
        // there), so hoisting them changes no bits.
        const typename L::VF v095 = L::bcast(0.95);
        const typename L::VF vdenom = L::bcast(0.99 - 0.95);
        const typename L::VF vg95 = L::bcast(t.gpa95);
        const typename L::VF vdg = L::bcast(t.gpa99 - t.gpa95);
        for (; s + W <= n; s += W) {
            const typename L::VF ab =
                L::loadu(abatement.p + s * abatement.step);
            const typename L::VF tt =
                L::div(L::sub(ab, v095), vdenom);
            const typename L::VF gpa_s =
                L::max0(L::add(vg95, L::mul(vdg, tt)));
            const typename L::VF num = L::add(
                L::add(L::mul(L::loadu(ci.p + s * ci.step),
                              L::loadu(epa.p + s * epa.step)),
                       gpa_s),
                L::loadu(mpa.p + s * mpa.step));
            L::storeu(out + s,
                      L::div(num, L::loadu(yield.p + s * yield.step)));
        }
        for (; s < n; ++s) {
            const double ab = abatement.p[s * abatement.step];
            const double tt = (ab - 0.95) / (0.99 - 0.95);
            // util::lerp then std::max(0.0, .), spelled out.
            const double raw = t.gpa95 + (t.gpa99 - t.gpa95) * tt;
            const double gpa_s = (0.0 < raw) ? raw : 0.0;
            out[s] = (ci.p[s * ci.step] * epa.p[s * epa.step] + gpa_s +
                      mpa.p[s * mpa.step]) /
                     yield.p[s * yield.step];
        }
        return;
    }
    for (; s + W <= n; s += W) {
        const typename L::VF num =
            L::add(L::add(L::mul(L::loadu(ci.p + s * ci.step),
                                 L::loadu(epa.p + s * epa.step)),
                          L::loadu(gpa.p + s * gpa.step)),
                   L::loadu(mpa.p + s * mpa.step));
        L::storeu(out + s,
                  L::div(num, L::loadu(yield.p + s * yield.step)));
    }
    for (; s < n; ++s) {
        out[s] = (ci.p[s * ci.step] * epa.p[s * epa.step] +
                  gpa.p[s * gpa.step] + mpa.p[s * mpa.step]) /
                 yield.p[s * yield.step];
    }
}
