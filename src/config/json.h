/**
 * @file
 * A self-contained JSON value type, parser, and serializer.
 *
 * The released ACT tool drives its model from configuration files; this
 * reproduction does the same without external dependencies. The parser
 * accepts standard JSON plus two conveniences common in config files:
 * '//' line comments and trailing commas.
 */

#ifndef ACT_CONFIG_JSON_H
#define ACT_CONFIG_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

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
    /** asNumber() narrowed; throws if not integral or outside the
     *  int64 range. */
    std::int64_t asInteger() const;
    const std::string &asString() const;
    const JsonArray &asArray() const;
    JsonArray &asArray();
    const JsonObject &asObject() const;
    JsonObject &asObject();

    /** True when this is an object containing @p key. */
    bool contains(const std::string &key) const;

    /** Checked object member access; throws when absent. */
    const JsonValue &at(const std::string &key) const;

    /** Object member access with a fallback default. */
    double numberOr(const std::string &key, double fallback) const;
    bool boolOr(const std::string &key, bool fallback) const;
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

    void dumpTo(std::string &out, int indent, int depth) const;
};

/** Load and parse a JSON file; fatal on I/O failure. */
JsonValue loadJsonFile(const std::string &path);

/** Serialize @p value to @p path; fatal on I/O failure or on a
 *  value dump() rejects (naming the path). */
void saveJsonFile(const std::string &path, const JsonValue &value,
                  int indent = 2);

} // namespace act::config

#endif // ACT_CONFIG_JSON_H
