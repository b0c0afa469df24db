/**
 * @file
 * Analytical performance/energy/area model of an NVDLA-class NPU
 * (DESIGN.md substitution #4), parameterized by MAC count (64-2048) and
 * process node, backing the Section 7 studies (Figs. 12 and 13).
 *
 * Performance: the MAC array is organized as Catom input channels x
 * Katom output channels per cycle (NVDLA atomics). A conv layer takes
 *   ceil(Cin/Catom) * ceil(Cout/Katom) * Hout * Wout * K^2
 * compute cycles; each layer also moves weights and activations over a
 * fixed-bandwidth DRAM interface and its elapsed cycles are
 * max(compute, memory). Wide arrays lose utilization to channel
 * mismatches and become bandwidth bound -- the mechanism behind the
 * paper's diminishing returns beyond ~1024 MACs.
 *
 * Energy per frame: active MAC switching + idle-array switching during
 * stalls + per-cycle system power (SRAM, control, leakage) + DRAM
 * traffic energy.
 *
 * Area: fixed control/interface overhead plus per-MAC datapath and
 * buffer area, scaled across nodes by a density factor; embodied carbon
 * is Eq. 4 over that area.
 */

#ifndef ACT_ACCEL_NPU_MODEL_H
#define ACT_ACCEL_NPU_MODEL_H

#include <cstdint>
#include <span>
#include <vector>

#include "accel/network.h"
#include "util/units.h"

namespace act::accel {

/** MAC-array organization: input x output channel atomics. */
struct Atomics
{
    int input_channels = 8;
    int output_channels = 8;
};

/** Atomics for a MAC count; fatal unless 64 <= count <= 2048, pow2. */
Atomics atomicsFor(int mac_count);

/** Model calibration constants; defaults reproduce the paper. */
struct NpuModelParams
{
    /** Core clock at the 16 nm reference node. */
    double clock_hz_16nm = 1.0e9;
    /** DRAM interface bandwidth, bytes per core cycle. */
    double dram_bytes_per_cycle = 8.0;
    /** Energy of one active MAC operation (16 nm reference). */
    double mac_energy_pj = 1.0;
    /** Idle/stall switching energy per MAC per cycle. */
    double idle_energy_pj = 0.6;
    /** Per-cycle system energy: SRAM, control, clock tree, leakage. */
    double system_energy_pj = 160.0;
    /** DRAM access energy per byte. */
    double dram_energy_pj_per_byte = 30.0;

    /** Area model at 16 nm: fixed + per-MAC (mm2). */
    double area_fixed_mm2 = 0.3968;
    double area_per_mac_mm2 = 7.584e-4;
    /** Logic density exponent across nodes: area scales with
     *  (node/16)^exponent (buffer-heavy designs scale sublinearly). */
    double density_exponent = 0.47;
    /** Clock scales with (16/node)^exponent. */
    double clock_exponent = 0.4;
};

/** One NPU configuration. */
struct NpuConfig
{
    int mac_count = 256;
    double node_nm = 16.0;
};

/** Per-layer evaluation detail. */
struct LayerTiming
{
    std::int64_t compute_cycles = 0;
    std::int64_t memory_cycles = 0;
    std::int64_t elapsed_cycles = 0;
    std::int64_t traffic_bytes = 0;
};

/** Whole-frame evaluation of one configuration. */
struct NpuEvaluation
{
    NpuConfig config;
    std::int64_t total_macs = 0;
    std::int64_t elapsed_cycles = 0;
    std::int64_t traffic_bytes = 0;
    /** Fraction of MAC-cycles doing useful work. */
    double utilization = 0.0;
    util::Duration latency{};
    double frames_per_second = 0.0;
    util::Energy energy_per_frame{};
    util::Area area{};
};

/** The NPU analytical simulator. */
class NpuModel
{
  public:
    explicit NpuModel(NpuModelParams params = NpuModelParams{});

    /** Silicon area of a configuration. */
    util::Area area(const NpuConfig &config) const;

    /** Core clock frequency at a node. */
    double clockHz(double node_nm) const;

    /** Per-layer timing under a configuration. */
    LayerTiming evaluateLayer(const ConvLayer &layer,
                              const NpuConfig &config) const;

    /** Full-frame evaluation over a network. */
    NpuEvaluation evaluate(const Network &network,
                           const NpuConfig &config) const;

  private:
    NpuModelParams params_;
};

} // namespace act::accel

#endif // ACT_ACCEL_NPU_MODEL_H
