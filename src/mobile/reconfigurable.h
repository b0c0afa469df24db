/**
 * @file
 * The Section 6.2 re-configurable hardware study (Fig. 11): a dual-core
 * Arm A53-class CPU, a specialized AI ASIC, and an embedded FPGA on an
 * SMIV-style 16 nm SoC, evaluated over FIR, AES, and AI inference.
 *
 * The speedup/efficiency ratios follow the paper's quoted measurements
 * (ASIC 26x AI performance and 44x AI energy reduction vs CPU; FPGA
 * 50x/80x/24x performance and 5x worse AI energy than the ASIC; CPU
 * 1.3x/1.8x lower embodied footprint). FIR/AES energy on the FPGA is
 * synthesized assuming ~2x CPU power at the quoted speedups (DESIGN.md
 * substitution #3).
 */

#ifndef ACT_MOBILE_RECONFIGURABLE_H
#define ACT_MOBILE_RECONFIGURABLE_H

#include <array>
#include <span>
#include <string>
#include <vector>

#include "core/embodied.h"
#include "core/metrics.h"

namespace act::mobile {

/** The three applications of Fig. 11. */
enum class SmivApp
{
    Fir,
    Aes,
    Ai,
};

inline constexpr std::size_t kNumSmivApps = 3;

/** One compute substrate on the SMIV-style SoC. */
struct SubstrateProfile
{
    std::string name;
    /** Total SoC silicon when provisioned with this substrate. */
    util::Area soc_area{};
    double node_nm = 16.0;
    /** Per-app speedup over the CPU (1.0 where the app falls back to
     *  the host CPU, as FIR/AES do on the AI ASIC). */
    std::array<double, kNumSmivApps> speedup{};
    /** Per-app energy per operation relative to the CPU (lower is
     *  better; 1.0 on CPU fallback). */
    std::array<double, kNumSmivApps> energy_ratio{};
};

/** CPU / ASIC ("Accel") / FPGA profiles, in Fig. 11 order. */
std::span<const SubstrateProfile> smivSubstrates();

/** Absolute per-app CPU baselines (latency and energy per op). */
util::Duration cpuAppLatency(SmivApp app);
util::Energy cpuAppEnergy(SmivApp app);

/** Per-substrate evaluation across the app suite. */
struct SubstrateResult
{
    std::string name;
    /** Per-app latency and energy per operation. */
    std::array<util::Duration, kNumSmivApps> latency{};
    std::array<util::Energy, kNumSmivApps> energy{};
    /** Geomean speedup over the CPU (Fig. 11 "Geo mean" group). */
    double geomean_speedup = 1.0;
    util::Mass embodied{};
};

std::vector<SubstrateResult>
evaluateSubstrates(const core::FabParams &fab);

/**
 * Design points over the suite (geomean delay/energy, embodied totals)
 * -- the space in which the paper reports the FPGA winning all four
 * carbon-aware metrics.
 */
std::vector<core::DesignPoint>
reconfigurableDesignSpace(const core::FabParams &fab);

} // namespace act::mobile

#endif // ACT_MOBILE_RECONFIGURABLE_H
