/**
 * @file
 * Mobile SoC specification database covering the thirteen chipsets of
 * Fig. 8 (Exynos 7420/8895/9810/9820, Snapdragon 820/835/845/855/865,
 * Kirin 960/970/980/990).
 *
 * Die area, process node, release year, and DRAM configuration are from
 * public teardowns. The paper sources performance from Geekbench 5
 * measurements averaged over ten in-the-wild devices per chipset; those
 * raw measurements are not redistributable, so this database carries a
 * synthetic per-workload score model calibrated to public
 * Geekbench-5-class aggregates and to the paper's reported conclusions
 * (metric-dependent optima in Fig. 8(d); the 1.21x mean annual energy
 * efficiency improvement of Fig. 14). See DESIGN.md, substitution #1.
 */

#ifndef ACT_DATA_SOC_DB_H
#define ACT_DATA_SOC_DB_H

#include <array>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.h"

namespace act::data {

/** SoC vendor families studied in Fig. 8. */
enum class SocFamily
{
    Exynos,
    Snapdragon,
    Kirin,
};

/** The seven Geekbench 5 mobile workloads used by the paper (Sec. 4.2). */
enum class MobileWorkload
{
    Html5Rendering,
    AesEncryption,
    TextCompression,
    ImageCompression,
    FaceDetection,
    SpeechRecognition,
    ImageClassification,
};

inline constexpr std::size_t kNumMobileWorkloads = 7;

std::string_view familyName(SocFamily family);

/** One mobile chipset. */
struct SocRecord
{
    std::string name;
    SocFamily family;
    int release_year;
    /** Logic process feature size in nm (e.g. 7, 8, 10, 14, 16). */
    double node_nm;
    util::Area die_area;
    /** Shipping DRAM capacity of the flagship configuration. */
    util::Capacity dram_capacity;
    /** DRAM technology name resolvable in the memory database; chosen
     *  by manufacturing era (Table 9 technologies). */
    std::string dram_technology;
    /** Thermal design power; the paper uses TDP as the power proxy. */
    util::Power tdp;
    /** Geekbench-5-style score per workload (higher is faster). */
    std::array<double, kNumMobileWorkloads> workload_scores;

    /** Geometric-mean score over all workloads ("aggregate mobile
     *  speed" in Fig. 8(a)). */
    double aggregateScore() const;

    /** Aggregate energy efficiency (score per watt), the quantity whose
     *  annual improvement Fig. 14 (left) reports. */
    double efficiencyScorePerWatt() const;
};

/** The SoC database singleton. */
class SocDatabase
{
  public:
    static const SocDatabase &instance();

    /** All chipsets, newest first within family (the paper's order). */
    std::span<const SocRecord> records() const;

    std::optional<SocRecord> findByName(std::string_view name) const;
    SocRecord byNameOrDie(std::string_view name) const;

    /** Chipsets of one family, oldest first (release-year order). */
    std::vector<SocRecord> familyByYear(SocFamily family) const;

  private:
    SocDatabase();
    std::vector<SocRecord> records_;
};

} // namespace act::data

#endif // ACT_DATA_SOC_DB_H
