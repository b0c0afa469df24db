#include "core/model_config.h"

#include <bit>
#include <cstdint>
#include <cstdio>

#include "data/fab_db.h"

namespace act::core {

using config::JsonValue;

namespace {

constexpr config::Choice<data::NodeLookup> kLookups[] = {
    {"interpolate", data::NodeLookup::Interpolate},
    {"nearest", data::NodeLookup::NearestAnchor},
};

} // namespace

FabParams
fabParamsFromJson(const JsonValue &value)
{
    FabParams params;
    params.ci_fab = util::gramsPerKilowattHour(config::number(
        value, "ci_fab_g_per_kwh", params.ci_fab.value()));
    params.abatement = config::number(value, "abatement", params.abatement);
    params.yield = config::number(value, "yield", params.yield);
    params.lookup = config::choice(value, "lookup", params.lookup, kLookups);
    return params;
}

namespace {

/** SplitMix64-style accumulation used for the data fingerprint. */
std::uint64_t
fingerprintMix(std::uint64_t hash, std::uint64_t value)
{
    hash ^= value + 0x9E3779B97F4A7C15ULL + (hash << 6) + (hash >> 2);
    hash ^= hash >> 30;
    hash *= 0xBF58476D1CE4E5B9ULL;
    hash ^= hash >> 27;
    return hash;
}

std::uint64_t
fingerprintMix(std::uint64_t hash, double value)
{
    return fingerprintMix(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t
fingerprintMix(std::uint64_t hash, const std::string &text)
{
    hash = fingerprintMix(hash, text.size());
    for (const char c : text)
        hash = fingerprintMix(hash, static_cast<std::uint64_t>(
                                        static_cast<unsigned char>(c)));
    return hash;
}

} // namespace

std::string
modelConfigFingerprint()
{
    static const std::string cached = [] {
        // Bump the salt whenever the CPA computation itself changes
        // in a way the data tables do not capture.
        std::uint64_t hash = 0xAC7'0001; // "ACT" format version 1
        const auto &fab_db = data::FabDatabase::instance();
        for (const data::FabNodeRecord &record : fab_db.records()) {
            hash = fingerprintMix(hash, record.name);
            hash = fingerprintMix(hash, record.nm);
            hash = fingerprintMix(hash, record.epa.value());
            hash = fingerprintMix(hash, record.gpa_abated_95.value());
            hash = fingerprintMix(hash, record.gpa_abated_99.value());
        }
        hash = fingerprintMix(hash, fab_db.mpa().value());
        hash = fingerprintMix(hash, data::defaultFabIntensity().value());
        hash = fingerprintMix(hash, data::defaultUseIntensity().value());
        char buffer[24];
        std::snprintf(buffer, sizeof(buffer), "%016llx",
                      static_cast<unsigned long long>(hash));
        return std::string(buffer);
    }();
    return cached;
}

} // namespace act::core
