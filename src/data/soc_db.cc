#include "data/soc_db.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/stats.h"
#include "util/strings.h"

namespace act::data {

using util::gigabytes;
using util::squareMillimeters;
using util::watts;

namespace {

/**
 * Per-family workload flavor: relative strengths across the Geekbench
 * suite (crypto extensions boost AES; Hexagon-style DSPs boost image
 * classification on Snapdragon; Kirin NPUs boost it further). Factors
 * are renormalized to geometric mean 1 at construction, so a chipset's
 * aggregate score is exactly its calibrated aggregate.
 */
constexpr std::array<double, kNumMobileWorkloads> kExynosFlavor = {
    1.00, 1.10, 0.95, 1.00, 1.02, 0.95, 0.90};
constexpr std::array<double, kNumMobileWorkloads> kSnapdragonFlavor = {
    0.95, 1.30, 0.92, 1.00, 1.05, 0.95, 1.10};
constexpr std::array<double, kNumMobileWorkloads> kKirinFlavor = {
    0.98, 1.05, 0.96, 1.02, 1.00, 0.92, 1.25};

const std::array<double, kNumMobileWorkloads> &
familyFlavor(SocFamily family)
{
    switch (family) {
      case SocFamily::Exynos:
        return kExynosFlavor;
      case SocFamily::Snapdragon:
        return kSnapdragonFlavor;
      case SocFamily::Kirin:
        return kKirinFlavor;
    }
    util::panic("unknown SocFamily enumerator");
}

std::array<double, kNumMobileWorkloads>
workloadScores(SocFamily family, double aggregate)
{
    const auto &flavor = familyFlavor(family);
    const double flavor_geomean =
        util::geomean(std::span<const double>(flavor));
    std::array<double, kNumMobileWorkloads> scores{};
    for (std::size_t i = 0; i < kNumMobileWorkloads; ++i)
        scores[i] = aggregate * flavor[i] / flavor_geomean;
    return scores;
}

SocRecord
makeSoc(std::string name, SocFamily family, int year, double node_nm,
        double area_mm2, double dram_gb, std::string dram_technology,
        double tdp_watts, double aggregate_score)
{
    SocRecord record;
    record.name = std::move(name);
    record.family = family;
    record.release_year = year;
    record.node_nm = node_nm;
    record.die_area = squareMillimeters(area_mm2);
    record.dram_capacity = gigabytes(dram_gb);
    record.dram_technology = std::move(dram_technology);
    record.tdp = watts(tdp_watts);
    record.workload_scores = workloadScores(family, aggregate_score);
    return record;
}

} // namespace

std::string_view
familyName(SocFamily family)
{
    switch (family) {
      case SocFamily::Exynos:
        return "Exynos";
      case SocFamily::Snapdragon:
        return "Snapdragon";
      case SocFamily::Kirin:
        return "Kirin";
    }
    util::panic("unknown SocFamily enumerator");
}

double
SocRecord::aggregateScore() const
{
    return util::geomean(std::span<const double>(workload_scores));
}

double
SocRecord::efficiencyScorePerWatt() const
{
    return aggregateScore() / util::asWatts(tdp);
}

SocDatabase::SocDatabase()
{
    using enum SocFamily;
    // Specs (node, die area, shipping DRAM, TDP) follow public
    // teardowns; aggregate scores are the calibrated synthetic
    // performance model (DESIGN.md substitution #1). DRAM technology is
    // assigned by manufacturing era per Table 9.
    records_ = {
        makeSoc("Exynos 9820", Exynos, 2019, 8.0, 127.0, 8.0, "LPDDR4",
                7.0, 2400.0),
        makeSoc("Exynos 9810", Exynos, 2018, 10.0, 118.0, 6.0, "LPDDR4",
                8.0, 2100.0),
        makeSoc("Exynos 8895", Exynos, 2017, 10.0, 105.0, 4.0, "LPDDR4",
                7.0, 1780.0),
        makeSoc("Exynos 7420", Exynos, 2015, 14.0, 78.0, 3.0,
                "20nm LPDDR3", 5.5, 1150.0),
        makeSoc("Snapdragon 865", Snapdragon, 2020, 7.0, 83.5, 8.0,
                "LPDDR4", 7.5, 3300.0),
        makeSoc("Snapdragon 855", Snapdragon, 2019, 7.0, 73.0, 6.0,
                "LPDDR4", 7.0, 2700.0),
        makeSoc("Snapdragon 845", Snapdragon, 2018, 10.0, 94.0, 6.0,
                "LPDDR4", 7.0, 2400.0),
        makeSoc("Snapdragon 835", Snapdragon, 2017, 10.0, 72.3, 4.0,
                "LPDDR4", 6.5, 1700.0),
        makeSoc("Snapdragon 820", Snapdragon, 2016, 14.0, 113.7, 4.0,
                "20nm LPDDR2", 6.5, 1380.0),
        makeSoc("Kirin 990", Kirin, 2019, 7.0, 113.3, 8.0, "LPDDR4", 6.0,
                3100.0),
        makeSoc("Kirin 980", Kirin, 2018, 7.0, 74.13, 6.0, "LPDDR4", 5.5,
                2600.0),
        makeSoc("Kirin 970", Kirin, 2017, 10.0, 96.72, 6.0, "LPDDR4", 7.0,
                1900.0),
        makeSoc("Kirin 960", Kirin, 2016, 16.0, 117.66, 4.0,
                "20nm LPDDR2", 6.5, 1500.0),
    };
}

const SocDatabase &
SocDatabase::instance()
{
    static const SocDatabase database;
    return database;
}

std::span<const SocRecord>
SocDatabase::records() const
{
    return records_;
}

std::optional<SocRecord>
SocDatabase::findByName(std::string_view name) const
{
    const std::string lowered = util::toLower(name);
    for (const auto &record : records_) {
        if (util::toLower(record.name) == lowered)
            return record;
    }
    return std::nullopt;
}

SocRecord
SocDatabase::byNameOrDie(std::string_view name) const
{
    auto record = findByName(name);
    if (!record)
        util::fatal("unknown SoC '", std::string(name), "'");
    return *record;
}

std::vector<SocRecord>
SocDatabase::familyByYear(SocFamily family) const
{
    std::vector<SocRecord> result;
    for (const auto &record : records_) {
        if (record.family == family)
            result.push_back(record);
    }
    std::sort(result.begin(), result.end(),
              [](const SocRecord &a, const SocRecord &b) {
                  return a.release_year < b.release_year;
              });
    return result;
}

} // namespace act::data
