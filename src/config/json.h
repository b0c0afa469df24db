/**
 * @file
 * A self-contained JSON value type, parser, and serializer, plus the
 * typed field readers every document loader goes through and the one
 * path that turns a bad document into a fatal.
 *
 * The released ACT tool drives its model from configuration files; this
 * reproduction does the same without external dependencies. The parser
 * accepts standard JSON plus two conveniences common in config files:
 * '//' line comments and trailing commas.
 */

#ifndef ACT_CONFIG_JSON_H
#define ACT_CONFIG_JSON_H

#include <cstdint>
#include <iosfwd>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/logging.h"

namespace act::config {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
/** std::map keeps keys ordered so serialization is deterministic. */
using JsonObject = std::map<std::string, JsonValue>;

/** Thrown on malformed input, with 1-based line/column coordinates. */
class JsonParseError : public std::runtime_error
{
  public:
    JsonParseError(const std::string &message, int line, int column);

    int line() const { return line_; }
    int column() const { return column_; }

  private:
    int line_;
    int column_;
};

/** Thrown when a value is accessed as the wrong type or a key is absent. */
class JsonTypeError : public std::runtime_error
{
  public:
    explicit JsonTypeError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/**
 * A JSON document node: null, bool, number (double), string, array, or
 * object. Accessors are checked and throw JsonTypeError on mismatch.
 */
class JsonValue
{
  public:
    JsonValue() : data_(nullptr) {}
    JsonValue(std::nullptr_t) : data_(nullptr) {}
    JsonValue(bool b) : data_(b) {}
    JsonValue(double d) : data_(d) {}
    JsonValue(int i) : data_(static_cast<double>(i)) {}
    JsonValue(const char *s) : data_(std::string(s)) {}
    JsonValue(std::string s) : data_(std::move(s)) {}
    JsonValue(JsonArray a) : data_(std::move(a)) {}
    JsonValue(JsonObject o) : data_(std::move(o)) {}

    bool isNull() const { return std::holds_alternative<std::nullptr_t>(data_); }
    bool isBool() const { return std::holds_alternative<bool>(data_); }
    bool isNumber() const { return std::holds_alternative<double>(data_); }
    bool isString() const
    { return std::holds_alternative<std::string>(data_); }
    bool isArray() const { return std::holds_alternative<JsonArray>(data_); }
    bool isObject() const
    { return std::holds_alternative<JsonObject>(data_); }

    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;
    const JsonArray &asArray() const;
    JsonArray &asArray();
    const JsonObject &asObject() const;
    JsonObject &asObject();

    /** True when this is an object containing @p key. */
    bool contains(const std::string &key) const;

    /** Checked object member access; throws "missing '<key>'" when
     *  absent. */
    const JsonValue &at(const std::string &key) const;

    /** Object member access with a fallback default. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    /**
     * Serialize; indent > 0 pretty-prints with that many spaces.
     * Throws JsonTypeError on an infinite or NaN number.
     */
    std::string dump(int indent = 0) const;

    /** Parse a complete document; trailing garbage is an error. */
    static JsonValue parse(std::string_view text);

  private:
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
                 JsonObject>
        data_;

    /** Append this value's text to @p out. With a @p sink, @p out is
     *  one reused block: once it holds a block after an array element
     *  or object member, it is written to @p sink and cleared. */
    void dumpTo(std::string &out, int indent, int depth,
                std::ostream *sink) const;

    friend void saveJsonFile(const std::string &path,
                             const JsonValue &value, int indent);
};

// ---------------------------------------------------------------------
// Typed field readers. Every loader reads its fields through these, so
// a bad field fails one way: a JsonTypeError
// "'<key>' must be <domain> (got <value>)", or "missing '<key>'" for an
// absent required key. Array entries are named "<key>[i]". Each reader
// has a required form and a defaulted form, which returns the fallback
// when @p object lacks the key. The message is built only on failure.
// ---------------------------------------------------------------------

/** The largest count a reader accepts by default: 2^63 - 1. */
inline constexpr std::uint64_t kMaxCount =
    (std::uint64_t{1} << 63) - 1;

/** The inclusive range [lo, hi] of a count() read. Both ends are
 *  spelled out, so a braced "{1}" never reads as a range. */
struct CountRange
{
    std::uint64_t lo = 0;
    std::uint64_t hi = kMaxCount;

    constexpr CountRange() = default;
    constexpr CountRange(std::uint64_t lo_in, std::uint64_t hi_in)
        : lo(lo_in), hi(hi_in)
    {}

    /** Store @p x in @p out when it is an integer in the range. */
    bool fits(double x, std::uint64_t &out) const;
};

/** The interval of a number() read; each end is open or closed. The
 *  default admits every finite number. */
struct Interval
{
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool lo_open = true;
    bool hi_open = true;

    constexpr Interval() = default;
    constexpr Interval(double lo_in, double hi_in, bool lo_open_in,
                       bool hi_open_in)
        : lo(lo_in), hi(hi_in), lo_open(lo_open_in), hi_open(hi_open_in)
    {}

    bool
    contains(double x) const
    {
        return (lo_open ? x > lo : x >= lo) && (hi_open ? x < hi : x <= hi);
    }
};

/** [lo, inf) */
constexpr Interval
atLeast(double lo)
{
    return {lo, std::numeric_limits<double>::infinity(), false, true};
}

/** (lo, inf) */
constexpr Interval
above(double lo)
{
    return {lo, std::numeric_limits<double>::infinity(), true, true};
}

/** [lo, hi] */
constexpr Interval
closed(double lo, double hi)
{
    return {lo, hi, false, false};
}

/** What @p range admits, as the readers' messages spell it:
 *  "a number", "a number > 0", "a number in (0, 1]", ... */
std::string domainName(const Interval &range);
/** "a non-negative integer", "an integer >= 1" or
 *  "an integer in [1, 1024]". */
std::string domainName(const CountRange &range);

/** @p value's shortest round-tripping spelling ("1e+30", "0.5",
 *  "inf"), for messages. */
std::string shortest(double value);

/** @p object's @p key: a JSON integer in @p range. */
std::uint64_t count(const JsonValue &object, const std::string &key,
                    CountRange range = {});
std::uint64_t count(const JsonValue &object, const std::string &key,
                    std::uint64_t fallback, CountRange range = {});

/** @p object's @p key: a JSON number in @p range. */
double number(const JsonValue &object, const std::string &key,
              Interval range = {});
double number(const JsonValue &object, const std::string &key,
              double fallback, Interval range = {});

/** @p object's @p key: an array of numbers, each in @p range. */
std::vector<double> numbers(const JsonValue &object, const std::string &key,
                            Interval range = {});

/** @p object's @p key: an array of integers, each in @p range. */
std::vector<std::uint64_t> counts(const JsonValue &object,
                                  const std::string &key,
                                  CountRange range = {});

/** Throw "'<key>' must be <domain> (got <value>)". For the checks a
 *  reader cannot express, such as a bound set by another field. */
[[noreturn]] void badField(const std::string &key, std::string_view domain,
                           const JsonValue &value);

namespace detail {

[[noreturn]] void badChoice(const std::string &key,
                            const std::vector<std::string_view> &names,
                            const JsonValue &value);

} // namespace detail

/** A name -> value table for choice(). */
template <typename T>
using Choice = std::pair<std::string_view, T>;

/** @p object's @p key: a string naming an entry of @p table, returned
 *  as that entry's value. */
template <typename T, std::size_t N>
T
choice(const JsonValue &object, const std::string &key,
       const Choice<T> (&table)[N])
{
    const JsonValue &value = object.at(key);
    if (value.isString()) {
        for (const auto &[name, entry] : table) {
            if (name == value.asString())
                return entry;
        }
    }
    std::vector<std::string_view> names;
    for (const auto &[name, entry] : table)
        names.push_back(name);
    detail::badChoice(key, names, value);
}

template <typename T, std::size_t N>
T
choice(const JsonValue &object, const std::string &key, T fallback,
       const Choice<T> (&table)[N])
{
    return object.contains(key) ? choice(object, key, table) : fallback;
}

/**
 * Run @p read; a JsonTypeError it throws is rethrown with
 * "<parts...>: " in front, so a failure inside a nested section names
 * where it sits ("regions[1]: 'days' must be ..."). Wrap once per
 * section or chunk, not once per element.
 */
template <typename Read, typename... Parts>
decltype(auto)
inContext(Read &&read, const Parts &...parts)
{
    try {
        return std::forward<Read>(read)();
    } catch (const JsonTypeError &error) {
        throw JsonTypeError(
            util::detail::concatenate(parts..., ": ", error.what()));
    }
}

/**
 * The one place a bad document becomes a fatal: run @p read, and turn
 * a JsonParseError into "fatal: failed to parse <what>: ..." and a
 * JsonTypeError into "fatal: bad <what>: ...". @p what names the
 * document, e.g. "metrics in sweep partial 'p.json'".
 */
template <typename Read>
decltype(auto)
readJsonAs(const std::string &what, Read &&read)
{
    try {
        return std::forward<Read>(read)();
    } catch (const JsonParseError &error) {
        util::fatal("failed to parse ", what, ": ", error.what());
    } catch (const JsonTypeError &error) {
        util::fatal("bad ", what, ": ", error.what());
    }
}

/** Load and parse a JSON file; fatal on I/O failure. */
JsonValue loadJsonFile(const std::string &path);

/** Load @p path and convert it with @p convert under readJsonAs(),
 *  naming the document "<kind> '<path>'". */
template <typename Convert>
auto
loadJsonAs(const std::string &path, std::string_view kind,
           Convert &&convert)
{
    return readJsonAs(std::string(kind) + " '" + path + "'",
                      [&] { return convert(loadJsonFile(path)); });
}

/** Serialize @p value to @p path, dump(indent) plus a newline, one
 *  16 KiB block at a time; fatal, naming the path, on I/O failure or on
 *  a value dump() rejects. A regular file left partly written by a
 *  failure is removed. */
void saveJsonFile(const std::string &path, const JsonValue &value,
                  int indent = 2);

} // namespace act::config

#endif // ACT_CONFIG_JSON_H
