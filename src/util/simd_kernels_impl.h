/**
 * @file
 * Width-generic implementations of the util/simd_kernels.h kernels,
 * parameterized over a lane-type policy `L` (LanesAvx2 in
 * simd_kernels_avx2.cc and the one-lane LanesScalar in
 * simd_kernels_scalar.cc implement the surface). NOT a normal header:
 * it contains no include guard and no #include directives, and is
 * meant to be included INSIDE an anonymous namespace within
 * act::util::simd, in a translation unit that already included
 * <cstddef>, <cstdint>, <limits>, <vector> and util/simd_kernels.h.
 *
 * Internal linkage is load-bearing, not style: the AVX2 translation
 * unit compiles with -mavx2, so any inline function it shared with
 * another TU could be merged by the linker into a VEX-encoded copy
 * that faults on CPUs without AVX. Anonymous-namespace inclusion
 * gives every TU its own ISA-correct copies.
 *
 * Bit-identity rules (DESIGN.md §11): every expression below keeps
 * the scalar expression's association and operation set -- no FMA, no
 * reassociation, no fast-math identities. Vector add/sub/mul are
 * IEEE-754 correctly rounded per lane, so equal expression shapes
 * give equal bits.
 *
 * Policy surface `L` must provide:
 *   kLanes                          lane count
 *   VF                              double vector type
 *   VI                              64-bit integer vector type
 *   bcast(double) -> VF
 *   bcastBits(std::uint64_t) -> VI
 *   loadu(const double*) -> VF      unaligned load of kLanes doubles
 *   storeu(double*, VF)
 *   add/sub/mul/div(VF, VF) -> VF
 *   sqrt(VF) -> VF                  IEEE (correctly rounded) sqrt
 *   blendLess(u, pivot, lo, hi)     per-lane u < pivot ? lo : hi
 *   min(a, b)                       per-lane a < b ? a : b
 *   bits(VF) -> VI, fromBits(VI) -> VF
 *                                   reinterpret, no value conversion
 *   andBits/orBits/xorBits(VI, VI) -> VI
 *   shl<k>(VI), shr<k>(VI)          logical shifts by a constant
 *   selectSign(m, a, b)             per-lane top bit of m set ? a : b
 */

/** The window shape of one fleet job; see FleetBlockProblem. */
struct FleetJobShape
{
    std::size_t s0 = 0;  ///< start0 % n
    std::size_t rem = 0; ///< full % n
    double cycles = 0.0; ///< double(full / n)
    double tail = 0.0;   ///< fractional tail hours
    std::size_t ends[3] = {1, 1, 1}; ///< window ends, capped at n
};

/** The end of a shift window of @p slack_hours: its shift count,
 *  capped at the series length. */
std::size_t
windowEnd(const FleetBlockProblem &pr, double slack_hours)
{
    const std::size_t shifts =
        static_cast<std::size_t>(slack_hours / pr.step) + 1;
    return shifts < pr.n ? shifts : pr.n;
}

/** Job @p i's shape, scalar and shared by every lane width; @p wide_end
 *  is windowEnd() of the block's wide slack. Forced inline, like the
 *  shift scan: where GCC 12 kept the scan out of line, its calls (with
 *  the scan state in memory) made this kernel slower than the per-job
 *  kernel it replaced. */
[[gnu::always_inline]] inline FleetJobShape
fleetJobShape(const FleetBlockProblem &pr, std::size_t i,
              std::size_t wide_end)
{
    const std::size_t n = pr.n;
    const double step = pr.step;
    const double duration = pr.duration_hours[i];
    const auto full = static_cast<std::size_t>(duration / step);
    FleetJobShape job;
    job.s0 = static_cast<std::size_t>(pr.arrival_hours[i] / step) % n;
    job.rem = full % n;
    job.cycles = static_cast<double>(full / n);
    job.tail = duration - static_cast<double>(full) * step;
    if (pr.windows >= 2)
        job.ends[1] = windowEnd(pr, pr.slack_hours[i]);
    job.ends[2] = pr.windows >= 3 && pr.deferrable[i] != 0 ? wide_end
                                                          : job.ends[1];
    return job;
}

/**
 * Per-chunk kernel state is kept as plain lanes of doubles, read and
 * written with loadu/storeu: a std::vector of vector-typed structs
 * takes glibc's aligned-allocation path, which raised the peak RSS of
 * a statically linked `act sweep` of the fleet_year plan by 128 kB.
 */

/** One lane chunk's best (weight, shift) at the end of each window:
 *  [0] the arrival sample, [1] the job's slack, [2] the wide slack. */
template <std::size_t W>
struct WindowEnds
{
    double weight[3][W];
    double shift[3][W];
};

/**
 * The region-lane shift scan of one job over regions
 * [r0, r0 + kLanes): each lane walks the shifts in order, and since
 * every region shares n, s0 and rem, all lanes take the same wrap
 * branch at a shift and evaluate the scalar sumSamples()/weightAt()
 * tree. Each lane's strict-< running argmin is the scalar
 * left-to-right scan of its region. Lanes past the last region read
 * the next row or the table's padding and are never stored.
 */
template <class L>
struct ShiftScan
{
    using VF = typename L::VF;

    const double *prefix;
    const double *samples;
    std::size_t stride;
    std::size_t n;
    std::size_t rem;
    bool tail;
    VF vstep;
    VF vtail;
    VF pn;
    VF base;
    // A +inf start loses to any finite shift-0 cost: the scan seeded
    // with shift 0.
    VF best = L::bcast(std::numeric_limits<double>::infinity());
    VF best_k = L::bcast(0.0);
    VF k_lanes = L::bcast(0.0);
    std::size_t s0;
    std::size_t k = 0;

    [[gnu::always_inline]] ShiftScan(const FleetBlockProblem &pr,
                                     const FleetJobShape &job,
                                     std::size_t r0)
        : prefix(pr.prefix + r0), samples(pr.samples + r0),
          stride(pr.regions), n(pr.n), rem(job.rem), tail(job.tail > 0.0),
          vstep(L::bcast(pr.step)), vtail(L::bcast(job.tail)),
          pn(L::loadu(prefix + n * stride)),
          base(L::mul(L::bcast(job.cycles), pn)), s0(job.s0)
    {}

    /** Advance the running argmin through shift end - 1. */
    [[gnu::always_inline]] void
    scanTo(std::size_t end)
    {
        const VF one = L::bcast(1.0);
        for (; k < end; ++k) {
            const std::size_t hi = s0 + rem;
            const VF lo = L::loadu(prefix + s0 * stride);
            VF sum;
            if (hi <= n) {
                const VF up = L::loadu(prefix + hi * stride);
                sum = L::add(base, L::sub(up, lo));
            } else {
                const VF up = L::loadu(prefix + (hi - n) * stride);
                sum = L::add(base, L::add(L::sub(pn, lo), up));
            }
            VF w = L::mul(sum, vstep);
            if (tail) {
                const std::size_t at = hi < n ? hi : hi - n;
                const VF g = L::loadu(samples + at * stride);
                w = L::add(w, L::mul(g, vtail));
            }
            // The index blend reads the running minimum before it is
            // updated.
            best_k = L::blendLess(w, best, k_lanes, best_k);
            best = L::min(w, best);
            k_lanes = L::add(k_lanes, one);
            if (++s0 == n)
                s0 = 0;
        }
    }
};

/** The shift scan read at each window end: it runs to one end,
 *  records each lane's answer and resumes (a single pass over every
 *  shift that blended the snapshots in measured ~25% slower). */
template <class L>
[[gnu::always_inline]] inline void
scanWindowsT(const FleetBlockProblem &pr, const FleetJobShape &job,
             std::size_t r0, WindowEnds<L::kLanes> &ends)
{
    ShiftScan<L> scan(pr, job, r0);
    for (std::size_t w = 0; w < 3; ++w) {
        scan.scanTo(job.ends[w]);
        L::storeu(ends.weight[w], scan.best);
        L::storeu(ends.shift[w], scan.best_k);
    }
}

/** One lane chunk's home regions and running sums (FleetBlockSums);
 *  the counts stay exact in doubles within a block. */
template <std::size_t W>
struct HomeLaneSums
{
    double region[W]; ///< each lane's region index
    double baseline[W];
    double operational[kPlacementRules][W];
    double deferred[kPlacementRules][W];
    double migrated[kPlacementRules][W];
};

/** lanes += v, lane by lane. */
template <class L>
void
addLanesT(double *lanes, typename L::VF v)
{
    L::storeu(lanes, L::add(L::loadu(lanes), v));
}

/**
 * The fleet block kernel. Regions go in lane chunks of kLanes. Per
 * job, each chunk's shift scan runs first and the kSlackCross winner
 * is reduced over every live lane in region order; then each chunk
 * adds its lanes' rule sums. The sums are loaded once per block and
 * stored once, so each lane adds in job order and the counts reach
 * the caller's integers once per block. (Keeping one chunk's state in
 * registers instead of this per-chunk scratch measured no faster.)
 */
template <class L>
void
fleetBlockT(const FleetBlockProblem &pr, const FleetBlockSums &out)
{
    using VF = typename L::VF;
    constexpr std::size_t W = L::kLanes;
    const std::size_t regions = pr.regions;
    const std::size_t chunks = (regions + W - 1) / W;
    const VF zero = L::bcast(0.0);
    const VF one = L::bcast(1.0);
    const auto liveLanes = [&](std::size_t r0) {
        return regions - r0 < W ? regions - r0 : W;
    };

    // Zeroed: the lanes past the last region start at 0 and are never
    // stored.
    std::vector<HomeLaneSums<W>> sums(chunks);
    std::vector<WindowEnds<W>> ends(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t r0 = c * W;
        HomeLaneSums<W> &s = sums[c];
        for (std::size_t j = 0; j < W; ++j)
            s.region[j] = static_cast<double>(r0 + j);
        for (std::size_t j = 0; j < liveLanes(r0); ++j) {
            s.baseline[j] = out.baseline[r0 + j];
            for (std::size_t rule = 0; rule < kPlacementRules; ++rule)
                s.operational[rule][j] =
                    out.operational[rule * regions + r0 + j];
        }
    }

    const std::size_t wide_end = windowEnd(pr, pr.wide_slack_hours);
    for (std::size_t i = 0; i < pr.count; ++i) {
        const FleetJobShape job = fleetJobShape(pr, i, wide_end);
        // The kSlackCross winner: the lexicographic minimum of
        // (weight, shift) over the regions' slack-window answers, the
        // lowest region on a tie.
        double win_w = std::numeric_limits<double>::infinity();
        double win_k = 0.0;
        std::size_t win_r = 0;
        for (std::size_t c = 0; c < chunks; ++c) {
            const std::size_t r0 = c * W;
            scanWindowsT<L>(pr, job, r0, ends[c]);
            const double *weights = ends[c].weight[1];
            const double *shifts = ends[c].shift[1];
            for (std::size_t j = 0; j < liveLanes(r0); ++j) {
                if (weights[j] < win_w ||
                    (weights[j] == win_w && shifts[j] < win_k)) {
                    win_w = weights[j];
                    win_k = shifts[j];
                    win_r = r0 + j;
                }
            }
        }
        const VF kw = L::bcast(pr.grid_kw[i]);
        const VF vwin_w = L::bcast(win_w);
        const VF vwin_r = L::bcast(static_cast<double>(win_r));
        const VF win_deferred = L::bcast(win_k != 0.0 ? 1.0 : 0.0);
        for (std::size_t c = 0; c < chunks; ++c) {
            const WindowEnds<W> &e = ends[c];
            HomeLaneSums<W> &s = sums[c];
            const VF cost0 = L::loadu(e.weight[0]);
            addLanesT<L>(s.baseline, L::mul(kw, cost0));
            const auto addHome = [&](std::size_t rule, std::size_t window) {
                addLanesT<L>(s.operational[rule],
                             L::mul(kw, L::loadu(e.weight[window])));
                addLanesT<L>(s.deferred[rule],
                             L::blendLess(zero, L::loadu(e.shift[window]),
                                          one, zero));
            };
            addHome(kSlackHome, 1);
            addHome(kWideHome, 2);
            // The job leaves home@0 only for a strictly greener winner
            // (w* <= w(0, h) always, so != is <); min() is then the
            // weight the job runs at.
            const VF region = L::loadu(s.region);
            const VF other_region =
                L::blendLess(region, vwin_r, one,
                             L::blendLess(vwin_r, region, one, zero));
            addLanesT<L>(s.operational[kSlackCross],
                         L::mul(kw, L::min(vwin_w, cost0)));
            addLanesT<L>(s.deferred[kSlackCross],
                         L::blendLess(vwin_w, cost0, win_deferred, zero));
            addLanesT<L>(s.migrated[kSlackCross],
                         L::blendLess(vwin_w, cost0, other_region, zero));
        }
    }

    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t r0 = c * W;
        const HomeLaneSums<W> &s = sums[c];
        for (std::size_t j = 0; j < liveLanes(r0); ++j) {
            out.baseline[r0 + j] = s.baseline[j];
            for (std::size_t rule = 0; rule < kPlacementRules; ++rule) {
                const std::size_t key = rule * regions + r0 + j;
                out.operational[key] = s.operational[rule][j];
                out.deferred[key] +=
                    static_cast<std::uint64_t>(s.deferred[rule][j]);
                out.migrated[key] +=
                    static_cast<std::uint64_t>(s.migrated[rule][j]);
            }
        }
    }
}

/**
 * 0x1.8p52: adding it to a double v with |v| < 2^51 rounds v to the
 * nearest integer n (ties to even), and the sum's bit pattern is
 * bits(0x1.8p52) + n. Subtracting it back gives n as a double; the
 * low bits of the pattern give n mod 2^k. This replaces the
 * double <-> int64 conversions AVX2 does not have, and gives the same
 * bits at one lane.
 */
constexpr double kRoundShift = 0x1.8p52;
constexpr std::uint64_t kRoundShiftBits = 0x4338000000000000ULL;

/** c0 + z*(c1 + z*(... + z*cn)), evaluated in that (Horner) order. */
template <class L>
typename L::VF
hornerT(typename L::VF, double cn)
{
    return L::bcast(cn);
}

template <class L, class... C>
typename L::VF
hornerT(typename L::VF z, double c0, C... rest)
{
    return L::add(L::bcast(c0), L::mul(z, hornerT<L>(z, rest...)));
}

/**
 * 2^k for an integer-valued k in [-1022, 1023]: the low 11 bits of
 * bits(k + 0x1.8p52 + 1023) are k + 1023, the biased exponent.
 */
template <class L>
typename L::VF
pow2T(typename L::VF k)
{
    return L::fromBits(L::template shl<52>(
        L::bits(L::add(k, L::bcast(kRoundShift + 1023.0)))));
}

/**
 * fdlibm e_log.c (Sun Microsystems, 1993) for a positive normal x,
 * without branches. x = 2^k * m with m in [1, 2); m is halved (and k
 * bumped) when m >= sqrt(2), so f = m - 1 lies in
 * [sqrt(2)/2 - 1, sqrt(2) - 1); then log(1 + f) = f - hfsq + s*(hfsq
 * + R) with s = f / (2 + f) and R a minimax polynomial in s^2. Both of
 * fdlibm's final forms are computed and the one fdlibm picks for this
 * m is selected. fdlibm's |f| < 2^-20 shortcut is not needed: the
 * general form is as accurate there.
 */
template <class L>
typename L::VF
detLogT(typename L::VF x)
{
    using VF = typename L::VF;
    constexpr double ln2_hi = 0x1.62e42fee00000p-1;
    constexpr double ln2_lo = 0x1.a39ef35793c76p-33;
    constexpr double lg1 = 0x1.5555555555593p-1;
    constexpr double lg2 = 0x1.999999997fa04p-2;
    constexpr double lg3 = 0x1.2492494229359p-2;
    constexpr double lg4 = 0x1.c71c51d8e78afp-3;
    constexpr double lg5 = 0x1.7466496cb03dep-3;
    constexpr double lg6 = 0x1.39a09d078c69fp-3;
    constexpr double lg7 = 0x1.2f112df3e5244p-3;
    // fdlibm's decisions read hx, the top 20 fraction bits of x; each
    // is a threshold on m at a 20-bit boundary.
    constexpr double m_sqrt2 = 1.0 + 0x6a09c * 0x1.0p-20;
    constexpr double m_hfsq_lo = 1.0 + 0x6147a * 0x1.0p-20;
    constexpr double m_hfsq_hi = 1.0 + 0x6b852 * 0x1.0p-20;

    const typename L::VI xb = L::bits(x);
    const VF m = L::fromBits(
        L::orBits(L::andBits(xb, L::bcastBits(0x000fffffffffffffULL)),
                  L::bcastBits(0x3ff0000000000000ULL)));
    const VF biased = L::fromBits(L::orBits(
        L::template shr<52>(xb), L::bcastBits(kRoundShiftBits)));
    VF k = L::sub(biased, L::bcast(kRoundShift + 1023.0));
    const VF vm_sqrt2 = L::bcast(m_sqrt2);
    const VF reduced =
        L::blendLess(m, vm_sqrt2, m, L::mul(m, L::bcast(0.5)));
    k = L::blendLess(m, vm_sqrt2, k, L::add(k, L::bcast(1.0)));

    const VF one = L::bcast(1.0);
    const VF f = L::sub(reduced, one);
    const VF s = L::div(f, L::add(L::bcast(2.0), f));
    const VF z = L::mul(s, s);
    const VF w = L::mul(z, z);
    const VF t1 = L::mul(w, hornerT<L>(w, lg2, lg4, lg6));
    const VF t2 = L::mul(z, hornerT<L>(w, lg1, lg3, lg5, lg7));
    const VF r = L::add(t2, t1);
    const VF k_hi = L::mul(k, L::bcast(ln2_hi));
    const VF k_lo = L::mul(k, L::bcast(ln2_lo));
    // hfsq form: k*ln2_hi - ((hfsq - (s*(hfsq + R) + k*ln2_lo)) - f).
    const VF hfsq = L::mul(L::mul(L::bcast(0.5), f), f);
    const VF with_hfsq = L::sub(
        k_hi,
        L::sub(L::sub(hfsq, L::add(L::mul(s, L::add(hfsq, r)), k_lo)),
               f));
    // Plain form: k*ln2_hi - ((s*(f - R) - k*ln2_lo) - f).
    const VF plain = L::sub(
        k_hi, L::sub(L::sub(L::mul(s, L::sub(f, r)), k_lo), f));
    return L::blendLess(m, L::bcast(m_hfsq_lo), plain,
                        L::blendLess(m, L::bcast(m_hfsq_hi), with_hfsq,
                                     plain));
}

/**
 * fdlibm k_cos.c (FreeBSD's revision) on |x| <= pi/4 for the
 * double-double argument x + y.
 */
template <class L>
typename L::VF
kernelCosT(typename L::VF x, typename L::VF y)
{
    using VF = typename L::VF;
    constexpr double c1 = 0x1.555555555554cp-5;
    constexpr double c2 = -0x1.6c16c16c15177p-10;
    constexpr double c3 = 0x1.a01a019cb1590p-16;
    constexpr double c4 = -0x1.27e4f809c52adp-22;
    constexpr double c5 = 0x1.1ee9ebdb4b1c4p-29;
    constexpr double c6 = -0x1.8fae9be8838d4p-37;
    const VF one = L::bcast(1.0);
    const VF z = L::mul(x, x);
    const VF w = L::mul(z, z);
    const VF r = L::add(L::mul(z, hornerT<L>(z, c1, c2, c3)),
                        L::mul(L::mul(w, w), hornerT<L>(z, c4, c5, c6)));
    const VF hz = L::mul(L::bcast(0.5), z);
    const VF v = L::sub(one, hz);
    // v + (((1 - v) - hz) + (z*r - x*y)): 1 - hz with its rounding
    // error added back.
    return L::add(v, L::add(L::sub(L::sub(one, v), hz),
                            L::sub(L::mul(z, r), L::mul(x, y))));
}

/**
 * fdlibm k_sin.c on |x| <= pi/4 for the double-double argument
 * x + y (its iy = 1 form).
 */
template <class L>
typename L::VF
kernelSinT(typename L::VF x, typename L::VF y)
{
    using VF = typename L::VF;
    constexpr double s1 = -0x1.5555555555549p-3;
    constexpr double s2 = 0x1.111111110f8a6p-7;
    constexpr double s3 = -0x1.a01a019c161d5p-13;
    constexpr double s4 = 0x1.71de357b1fe7dp-19;
    constexpr double s5 = -0x1.ae5e68a2b9cebp-26;
    constexpr double s6 = 0x1.5d93a5acfd57cp-33;
    const VF z = L::mul(x, x);
    const VF w = L::mul(z, z);
    const VF r = L::add(hornerT<L>(z, s2, s3, s4),
                        L::mul(L::mul(z, w), hornerT<L>(z, s5, s6)));
    const VF v = L::mul(z, x);
    // x - ((z*(y/2 - v*r) - y) - v*S1)
    return L::sub(
        x, L::sub(L::sub(L::mul(z, L::sub(L::mul(L::bcast(0.5), y),
                                          L::mul(v, r))),
                         y),
                  L::mul(v, L::bcast(s1))));
}

/**
 * cos(x) for x in [0, 2 pi], without branches. n = round(x * 2/pi)
 * comes from the 0x1.8p52 trick, and x - n*pi/2 is formed as the
 * double-double y0 + y1 with fdlibm e_rem_pio2.c's second-iteration
 * split of pi/2 (33 + 33 + 53 bits; n * each part is exact for
 * n <= 4). A two-part split is not enough here: next to an odd
 * multiple of pi/2 the reduced argument is ~6e-17 and a 33 + 53-bit
 * pi/2 leaves ~4e-27 of error, about 26,000 ulp of the result. The
 * quadrant n mod 4 picks cos or sin of y (odd n) and its sign
 * (n mod 4 in {1, 2}) from the low bits of the rounded pattern.
 */
template <class L>
typename L::VF
detCosT(typename L::VF x)
{
    using VF = typename L::VF;
    constexpr double invpio2 = 0x1.45f306dc9c883p-1;
    constexpr double pio2_1 = 0x1.921fb54400000p+0;
    constexpr double pio2_2 = 0x1.0b4611a600000p-34;
    constexpr double pio2_2t = 0x1.3198a2e037073p-69;
    const VF shifted = L::add(L::mul(x, L::bcast(invpio2)),
                              L::bcast(kRoundShift));
    const VF n = L::sub(shifted, L::bcast(kRoundShift));
    const typename L::VI nb = L::bits(shifted);

    const VF r1 = L::sub(x, L::mul(n, L::bcast(pio2_1)));
    const VF w1 = L::mul(n, L::bcast(pio2_2));
    const VF r = L::sub(r1, w1);
    const VF w = L::sub(L::mul(n, L::bcast(pio2_2t)),
                        L::sub(L::sub(r1, r), w1));
    const VF y0 = L::sub(r, w);
    const VF y1 = L::sub(L::sub(r, y0), w);

    const VF value = L::selectSign(L::template shl<63>(nb),
                                   kernelSinT<L>(y0, y1),
                                   kernelCosT<L>(y0, y1));
    // Sign bit = bit 1 of n XOR bit 0 of n.
    const typename L::VI sign = L::andBits(
        L::xorBits(L::template shl<62>(nb), L::template shl<63>(nb)),
        L::bcastBits(0x8000000000000000ULL));
    return L::fromBits(L::xorBits(L::bits(value), sign));
}

/**
 * fdlibm e_exp.c without branches: k = round(x / ln2) from the
 * 0x1.8p52 trick, r = hi - lo = x - k*ln2 (ln2_hi has 32 significant
 * bits, so k*ln2_hi is exact), exp(r) = 1 - ((lo - r*c/(2 - c)) - hi)
 * with c = r - r^2*P(r^2), then the 2^k scale. For k = 0 this is
 * fdlibm's k == 0 form bit for bit. x is clamped to [-1000, 1000] and
 * 2^k applied as 2^(k - k/2) * 2^(k/2), so both factors are normal
 * and an out-of-range result saturates to 0 or inf; where the result
 * is normal both multiplies are exact.
 */
template <class L>
typename L::VF
detExpT(typename L::VF x)
{
    using VF = typename L::VF;
    constexpr double invln2 = 0x1.71547652b82fep+0;
    constexpr double ln2_hi = 0x1.62e42fee00000p-1;
    constexpr double ln2_lo = 0x1.a39ef35793c76p-33;
    constexpr double p1 = 0x1.555555555553ep-3;
    constexpr double p2 = -0x1.6c16c16bebd93p-9;
    constexpr double p3 = 0x1.1566aaf25de2cp-14;
    constexpr double p4 = -0x1.bbd41c5d26bf1p-20;
    constexpr double p5 = 0x1.6376972bea4d0p-25;
    const VF lo_clamp = L::bcast(-1000.0);
    const VF hi_clamp = L::bcast(1000.0);
    x = L::blendLess(x, lo_clamp, lo_clamp, x);
    x = L::blendLess(hi_clamp, x, hi_clamp, x);

    const VF shift = L::bcast(kRoundShift);
    const VF k = L::sub(L::add(L::mul(x, L::bcast(invln2)), shift), shift);
    const VF hi = L::sub(x, L::mul(k, L::bcast(ln2_hi)));
    const VF lo = L::mul(k, L::bcast(ln2_lo));
    const VF r = L::sub(hi, lo);
    const VF z = L::mul(r, r);
    const VF c = L::sub(r, L::mul(z, hornerT<L>(z, p1, p2, p3, p4, p5)));
    const VF y = L::sub(
        L::bcast(1.0),
        L::sub(L::sub(lo, L::div(L::mul(r, c),
                                 L::sub(L::bcast(2.0), c))),
               hi));
    const VF k_half =
        L::sub(L::add(L::mul(k, L::bcast(0.5)), shift), shift);
    return L::mul(L::mul(y, pow2T<L>(L::sub(k, k_half))),
                  pow2T<L>(k_half));
}

/**
 * out[i] = op(a[i], b[i]) over [0, count), kLanes at a time; a ragged
 * tail runs as one more full vector whose dead lanes read @p pad_a /
 * @p pad_b, and only its live lanes are stored, so every element goes
 * through the same lane code. out may alias a or b: each vector is
 * loaded before it is stored.
 */
template <class L, class Op>
void
mapLanesT(std::size_t count, const double *a, const double *b,
          double pad_a, double pad_b, double *out, Op op)
{
    constexpr std::size_t W = L::kLanes;
    std::size_t i = 0;
    for (; i + W <= count; i += W)
        L::storeu(out + i, op(L::loadu(a + i), L::loadu(b + i)));
    if (i < count) {
        double tail_a[W];
        double tail_b[W];
        double value[W];
        const std::size_t tail = count - i;
        for (std::size_t j = 0; j < W; ++j) {
            tail_a[j] = j < tail ? a[i + j] : pad_a;
            tail_b[j] = j < tail ? b[i + j] : pad_b;
        }
        L::storeu(value, op(L::loadu(tail_a), L::loadu(tail_b)));
        for (std::size_t j = 0; j < tail; ++j)
            out[i + j] = value[j];
    }
}

/**
 * The LogNormalProblem transform in three passes over out: -2 log u1,
 * then the normal sqrt(-2 log u1) * cos(2 pi u2), then the clamped
 * median * exp(log_sigma * normal). Each element sees the same
 * operations in the same order as one fused expression; splitting it
 * keeps each pass's dependency chain short enough for consecutive
 * vectors to overlap, which measured ~25% faster than the fused loop
 * at four lanes.
 */
template <class L>
void
logNormalT(const LogNormalProblem &pr, double *out)
{
    using VF = typename L::VF;
    const VF tiny = L::bcast(1e-300);
    mapLanesT<L>(pr.count, pr.u1, pr.u1, 0.5, 0.5, out,
                 [&](VF u1, VF) {
                     u1 = L::blendLess(u1, tiny, tiny, u1);
                     return L::mul(L::bcast(-2.0), detLogT<L>(u1));
                 });
    const VF two_pi = L::bcast(2.0 * 3.14159265358979323846);
    mapLanesT<L>(pr.count, out, pr.u2, 1.0, 0.5, out,
                 [&](VF minus_2_log_u1, VF u2) {
                     return L::mul(L::sqrt(minus_2_log_u1),
                                   detCosT<L>(L::mul(two_pi, u2)));
                 });
    const VF median = L::bcast(pr.median);
    const VF log_sigma = L::bcast(pr.log_sigma);
    const VF max_value = L::bcast(pr.max_value);
    mapLanesT<L>(pr.count, out, out, 0.0, 0.0, out,
                 [&](VF normal, VF) {
                     const VF value =
                         L::mul(median, detExpT<L>(L::mul(log_sigma,
                                                          normal)));
                     return L::blendLess(value, max_value, value,
                                         max_value);
                 });
}
