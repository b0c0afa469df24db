#include "accel/npu_model.h"

#include <cmath>

#include "util/logging.h"

namespace act::accel {

Atomics
atomicsFor(int mac_count)
{
    switch (mac_count) {
      case 64: return {8, 8};
      case 128: return {16, 8};
      case 256: return {16, 16};
      case 512: return {32, 16};
      case 1024: return {32, 32};
      case 2048: return {64, 32};
      default:
        util::fatal("unsupported MAC count ", mac_count,
                    " (expected a power of two in [64, 2048])");
    }
}

NpuModel::NpuModel(NpuModelParams params) : params_(params) {}

util::Area
NpuModel::area(const NpuConfig &config) const
{
    // Validates the MAC count as a side effect.
    (void)atomicsFor(config.mac_count);
    const double area_16nm =
        params_.area_fixed_mm2 +
        params_.area_per_mac_mm2 * config.mac_count;
    const double density_scale =
        std::pow(config.node_nm / 16.0, params_.density_exponent);
    return util::squareMillimeters(area_16nm * density_scale);
}

double
NpuModel::clockHz(double node_nm) const
{
    return params_.clock_hz_16nm *
           std::pow(16.0 / node_nm, params_.clock_exponent);
}

LayerTiming
NpuModel::evaluateLayer(const ConvLayer &layer,
                        const NpuConfig &config) const
{
    const Atomics atomics = atomicsFor(config.mac_count);
    const auto ceil_div = [](std::int64_t a, std::int64_t b) {
        return (a + b - 1) / b;
    };

    LayerTiming timing;
    timing.compute_cycles =
        static_cast<std::int64_t>(layer.out_height) * layer.out_width *
        layer.kernel * layer.kernel *
        ceil_div(layer.in_channels, atomics.input_channels) *
        ceil_div(layer.out_channels, atomics.output_channels);

    // Traffic: int8 weights, input feature map (approximated at the
    // output resolution times the stride^2 implied by any downsampling
    // -- we conservatively use the output resolution for both maps),
    // and the output feature map.
    const std::int64_t weights =
        static_cast<std::int64_t>(layer.in_channels) *
        layer.out_channels * layer.kernel * layer.kernel;
    const std::int64_t ifmap =
        static_cast<std::int64_t>(layer.out_height) * layer.out_width *
        layer.in_channels;
    const std::int64_t ofmap =
        static_cast<std::int64_t>(layer.out_height) * layer.out_width *
        layer.out_channels;
    timing.traffic_bytes = weights + ifmap + ofmap;
    timing.memory_cycles = static_cast<std::int64_t>(std::ceil(
        static_cast<double>(timing.traffic_bytes) /
        params_.dram_bytes_per_cycle));

    timing.elapsed_cycles =
        std::max(timing.compute_cycles, timing.memory_cycles);
    return timing;
}

NpuEvaluation
NpuModel::evaluate(const Network &network, const NpuConfig &config) const
{
    NpuEvaluation result;
    result.config = config;
    result.total_macs = network.totalMacs();

    for (const auto &layer : network.layers) {
        const LayerTiming timing = evaluateLayer(layer, config);
        result.elapsed_cycles += timing.elapsed_cycles;
        result.traffic_bytes += timing.traffic_bytes;
    }

    const double mac_cycles = static_cast<double>(result.elapsed_cycles) *
                              config.mac_count;
    result.utilization =
        static_cast<double>(result.total_macs) / mac_cycles;

    const double clock = clockHz(config.node_nm);
    result.latency = util::seconds(
        static_cast<double>(result.elapsed_cycles) / clock);
    result.frames_per_second = 1.0 / util::asSeconds(result.latency);

    // Energy: active switching scales quadratically-ish with voltage
    // across nodes; we fold node scaling into a single factor relative
    // to the 16 nm reference.
    const double node_energy_scale = config.node_nm / 16.0;
    const double active_pj =
        params_.mac_energy_pj * static_cast<double>(result.total_macs);
    const double idle_pj =
        params_.idle_energy_pj *
        (mac_cycles - static_cast<double>(result.total_macs));
    const double system_pj =
        params_.system_energy_pj *
        static_cast<double>(result.elapsed_cycles);
    const double dram_pj = params_.dram_energy_pj_per_byte *
                           static_cast<double>(result.traffic_bytes);
    result.energy_per_frame = util::joules(
        (active_pj + idle_pj + system_pj) * node_energy_scale * 1e-12 +
        dram_pj * 1e-12);

    result.area = area(config);
    return result;
}

} // namespace act::accel
