/**
 * @file
 * Strongly-typed physical quantities used throughout the ACT model.
 *
 * The ACT carbon model multiplies many per-unit intensities (g CO2 per kWh,
 * g CO2 per cm2, kWh per cm2, g CO2 per GB, ...) with base quantities.
 * Mixing these up silently is the single easiest way to produce a wrong
 * carbon estimate, so every quantity carries its dimension in the type
 * system and only dimensionally meaningful products are defined.
 *
 * Base units (value() is always expressed in these):
 *   - Mass:            grams of CO2-equivalent
 *   - Energy:          kilowatt-hours
 *   - Area:            square centimeters
 *   - Duration:        seconds
 *   - Capacity:        gigabytes
 *   - Power:           watts
 */

#ifndef ACT_UTIL_UNITS_H
#define ACT_UTIL_UNITS_H

#include <cmath>
#include <compare>
#include <cstdint>

namespace act::util {

/**
 * A dimension-tagged scalar. Two Quantity instantiations with different
 * tags do not convert into each other; arithmetic is only defined within
 * a tag (plus scalar scaling), and the cross-dimension products that the
 * ACT model actually needs are defined as free functions below.
 */
template <typename Tag>
class Quantity
{
  public:
    constexpr Quantity() = default;
    constexpr explicit Quantity(double value) : value_(value) {}

    /** Magnitude in the dimension's base unit. */
    constexpr double value() const { return value_; }

    constexpr Quantity operator+(Quantity other) const
    { return Quantity(value_ + other.value_); }
    constexpr Quantity operator-(Quantity other) const
    { return Quantity(value_ - other.value_); }
    constexpr Quantity operator-() const { return Quantity(-value_); }
    constexpr Quantity operator*(double scale) const
    { return Quantity(value_ * scale); }
    constexpr Quantity operator/(double scale) const
    { return Quantity(value_ / scale); }

    /** Ratio of two like quantities is a plain number. */
    constexpr double operator/(Quantity other) const
    { return value_ / other.value_; }

    constexpr Quantity &
    operator+=(Quantity other)
    {
        value_ += other.value_;
        return *this;
    }

    constexpr Quantity &
    operator-=(Quantity other)
    {
        value_ -= other.value_;
        return *this;
    }

    constexpr Quantity &
    operator*=(double scale)
    {
        value_ *= scale;
        return *this;
    }

    constexpr auto operator<=>(const Quantity &) const = default;

  private:
    double value_ = 0.0;
};

template <typename Tag>
constexpr Quantity<Tag>
operator*(double scale, Quantity<Tag> q)
{
    return q * scale;
}

struct MassTag {};             ///< grams CO2e
struct EnergyTag {};           ///< kilowatt-hours
struct AreaTag {};             ///< square centimeters
struct DurationTag {};         ///< seconds
struct CapacityTag {};         ///< gigabytes
struct PowerTag {};            ///< watts
struct CarbonIntensityTag {};  ///< g CO2 per kWh
struct CarbonPerAreaTag {};    ///< g CO2 per cm2
struct EnergyPerAreaTag {};    ///< kWh per cm2
struct CarbonPerCapTag {};     ///< g CO2 per GB

using Mass = Quantity<MassTag>;
using Energy = Quantity<EnergyTag>;
using Area = Quantity<AreaTag>;
using Duration = Quantity<DurationTag>;
using Capacity = Quantity<CapacityTag>;
using Power = Quantity<PowerTag>;
/** Carbon intensity of an energy source or grid (g CO2 / kWh). */
using CarbonIntensity = Quantity<CarbonIntensityTag>;
/** Carbon emitted per unit die area manufactured (g CO2 / cm2). */
using CarbonPerArea = Quantity<CarbonPerAreaTag>;
/** Fab energy consumed per unit die area manufactured (kWh / cm2). */
using EnergyPerArea = Quantity<EnergyPerAreaTag>;
/** Carbon emitted per unit memory/storage capacity (g CO2 / GB). */
using CarbonPerCapacity = Quantity<CarbonPerCapTag>;

// --- Constructors in natural units ------------------------------------

constexpr Mass grams(double g) { return Mass(g); }
constexpr Mass kilograms(double kg) { return Mass(kg * 1e3); }

constexpr Energy kilowattHours(double kwh) { return Energy(kwh); }
constexpr Energy joules(double j) { return Energy(j / 3.6e6); }

constexpr Area squareCentimeters(double cm2) { return Area(cm2); }
constexpr Area squareMillimeters(double mm2) { return Area(mm2 / 100.0); }

constexpr double kSecondsPerHour = 3600.0;
constexpr double kSecondsPerDay = 86400.0;
constexpr double kDaysPerYear = 365.0;
constexpr double kSecondsPerYear = kSecondsPerDay * kDaysPerYear;

constexpr Duration seconds(double s) { return Duration(s); }
constexpr Duration milliseconds(double ms) { return Duration(ms * 1e-3); }
constexpr Duration hours(double h) { return Duration(h * kSecondsPerHour); }
constexpr Duration years(double y) { return Duration(y * kSecondsPerYear); }

constexpr Capacity gigabytes(double gb) { return Capacity(gb); }
constexpr Capacity terabytes(double tb) { return Capacity(tb * 1e3); }

constexpr Power watts(double w) { return Power(w); }

constexpr CarbonIntensity
gramsPerKilowattHour(double g)
{
    return CarbonIntensity(g);
}

constexpr CarbonPerArea gramsPerCm2(double g) { return CarbonPerArea(g); }

constexpr EnergyPerArea
kilowattHoursPerCm2(double kwh)
{
    return EnergyPerArea(kwh);
}

constexpr CarbonPerCapacity
gramsPerGigabyte(double g)
{
    return CarbonPerCapacity(g);
}

// --- Accessors in natural units ----------------------------------------

constexpr double asKilograms(Mass m) { return m.value() / 1e3; }
constexpr double asGrams(Mass m) { return m.value(); }
constexpr double asMicrograms(Mass m) { return m.value() * 1e6; }
constexpr double asJoules(Energy e) { return e.value() * 3.6e6; }
constexpr double asMillijoules(Energy e) { return asJoules(e) * 1e3; }
constexpr double asKilowattHours(Energy e) { return e.value(); }
constexpr double asSquareMillimeters(Area a) { return a.value() * 100.0; }
constexpr double asSquareCentimeters(Area a) { return a.value(); }
constexpr double asMilliseconds(Duration d) { return d.value() * 1e3; }
constexpr double asSeconds(Duration d) { return d.value(); }
constexpr double asYears(Duration d) { return d.value() / kSecondsPerYear; }
constexpr double asGigabytes(Capacity c) { return c.value(); }
constexpr double asWatts(Power p) { return p.value(); }

// --- Dimensionally meaningful products ---------------------------------

/** OPCF = CI_use x Energy (Eq. 2). */
constexpr Mass
operator*(CarbonIntensity ci, Energy e)
{
    return Mass(ci.value() * e.value());
}

constexpr Mass operator*(Energy e, CarbonIntensity ci) { return ci * e; }

/** E_SoC = CPA x Area (Eq. 4). */
constexpr Mass
operator*(CarbonPerArea cpa, Area a)
{
    return Mass(cpa.value() * a.value());
}

constexpr Mass operator*(Area a, CarbonPerArea cpa) { return cpa * a; }

/** Fab energy for a die: EPA x Area. */
constexpr Energy
operator*(EnergyPerArea epa, Area a)
{
    return Energy(epa.value() * a.value());
}

constexpr Energy operator*(Area a, EnergyPerArea epa) { return epa * a; }

/** Carbon from converting fab energy-per-area at a fab carbon intensity. */
constexpr CarbonPerArea
operator*(CarbonIntensity ci, EnergyPerArea epa)
{
    return CarbonPerArea(ci.value() * epa.value());
}

constexpr CarbonPerArea
operator*(EnergyPerArea epa, CarbonIntensity ci)
{
    return ci * epa;
}

/** E_DRAM / E_SSD / E_HDD = CPS x Capacity (Eqs. 6-8). */
constexpr Mass
operator*(CarbonPerCapacity cps, Capacity c)
{
    return Mass(cps.value() * c.value());
}

constexpr Mass operator*(Capacity c, CarbonPerCapacity cps) { return cps * c; }

/** Operational energy = Power x Duration. */
constexpr Energy
operator*(Power p, Duration d)
{
    return joules(p.value() * d.value());
}

constexpr Energy operator*(Duration d, Power p) { return p * d; }

/** Average power = Energy / Duration. */
constexpr Power
operator/(Energy e, Duration d)
{
    return Power(asJoules(e) / d.value());
}

/** Per-unit intensities recovered from totals. */
constexpr CarbonPerArea
operator/(Mass m, Area a)
{
    return CarbonPerArea(m.value() / a.value());
}

constexpr CarbonPerCapacity
operator/(Mass m, Capacity c)
{
    return CarbonPerCapacity(m.value() / c.value());
}

constexpr CarbonIntensity
operator/(Mass m, Energy e)
{
    return CarbonIntensity(m.value() / e.value());
}

} // namespace act::util

#endif // ACT_UTIL_UNITS_H
