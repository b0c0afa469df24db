#include "config/json.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/logging.h"

namespace act::config {

JsonParseError::JsonParseError(const std::string &message, int line,
                               int column)
    : std::runtime_error(message + " at line " + std::to_string(line) +
                         ", column " + std::to_string(column)),
      line_(line), column_(column)
{}

namespace {

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** Recursive-descent JSON parser over a string_view. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue
    parseDocument()
    {
        skipWhitespace();
        JsonValue value = parseValue();
        skipWhitespace();
        if (!atEnd())
            raise("trailing characters after JSON document");
        return value;
    }

  private:
    std::string_view text_;
    std::size_t pos_ = 0;

    bool atEnd() const { return pos_ >= text_.size(); }

    char
    peek() const
    {
        if (atEnd())
            raise("unexpected end of input");
        return text_[pos_];
    }

    char
    advance()
    {
        const char c = peek();
        ++pos_;
        return c;
    }

    /**
     * Throw at the current position. The 1-based line and column are
     * worked out from the consumed text only here, so the hot path
     * never tracks them.
     */
    [[noreturn]] void
    raise(const std::string &message) const
    {
        const std::string_view consumed = text_.substr(0, pos_);
        const std::size_t line_start = consumed.rfind('\n') + 1;
        const auto newlines =
            std::count(consumed.begin(), consumed.end(), '\n');
        throw JsonParseError(message, static_cast<int>(newlines) + 1,
                             static_cast<int>(pos_ - line_start) + 1);
    }

    void
    skipWhitespace()
    {
        while (!atEnd()) {
            const char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                ++pos_;
            } else if (c == '/' && pos_ + 1 < text_.size() &&
                       text_[pos_ + 1] == '/') {
                pos_ = std::min(text_.find('\n', pos_), text_.size());
            } else {
                break;
            }
        }
    }

    void
    skipDigits()
    {
        while (!atEnd() && isDigit(text_[pos_]))
            ++pos_;
    }

    void
    expect(char c)
    {
        if (atEnd() || text_[pos_] != c)
            raise(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeIf(char c)
    {
        if (!atEnd() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonValue
    parseValue()
    {
        skipWhitespace();
        const char c = peek();
        switch (c) {
          case '{':
            return parseObject();
          case '[':
            return parseArray();
          case '"':
            return JsonValue(parseString());
          case 't':
          case 'f':
            return parseBool();
          case 'n':
            parseLiteral("null");
            return JsonValue(nullptr);
          default:
            if (c == '-' || isDigit(c))
                return parseNumber();
            raise("unexpected character");
        }
    }

    void
    parseLiteral(std::string_view literal)
    {
        for (char expected : literal) {
            if (atEnd() || text_[pos_] != expected)
                raise(std::string("invalid literal, expected '") +
                      std::string(literal) + "'");
            ++pos_;
        }
    }

    JsonValue
    parseBool()
    {
        if (peek() == 't') {
            parseLiteral("true");
            return JsonValue(true);
        }
        parseLiteral("false");
        return JsonValue(false);
    }

    /**
     * Scan the longest number-shaped token, then convert it with
     * std::from_chars (correctly rounded, locale-free, subnormals
     * included). Out-of-range values and tokens from_chars does not
     * consume whole are malformed.
     */
    JsonValue
    parseNumber()
    {
        const std::size_t start = pos_;
        consumeIf('-');
        skipDigits();
        if (consumeIf('.'))
            skipDigits();
        if (!atEnd() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (!atEnd() && (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            skipDigits();
        }
        const std::string_view token = text_.substr(start, pos_ - start);
        const char *const end = token.data() + token.size();
        double value = 0.0;
        const auto [stop, error] =
            std::from_chars(token.data(), end, value);
        if (error != std::errc() || stop != end)
            raise("malformed number '" + std::string(token) + "'");
        return JsonValue(value);
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            const std::size_t run = pos_;
            while (!atEnd() && text_[pos_] != '"' && text_[pos_] != '\\')
                ++pos_;
            out.append(text_.data() + run, pos_ - run);
            if (atEnd())
                raise("unterminated string");
            if (text_[pos_++] == '"')
                return out;
            const char escape = advance();
            switch (escape) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': appendUnicodeEscape(out); break;
              default: raise("invalid escape sequence");
            }
        }
    }

    void
    appendUnicodeEscape(std::string &out)
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = advance();
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else
                raise("invalid \\u escape");
        }
        // Encode as UTF-8 (basic multilingual plane only; surrogate
        // pairs are not needed for ACT config files).
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonArray array;
        skipWhitespace();
        if (consumeIf(']'))
            return JsonValue(std::move(array));
        while (true) {
            array.push_back(parseValue());
            skipWhitespace();
            if (consumeIf(',')) {
                skipWhitespace();
                if (consumeIf(']'))  // trailing comma
                    return JsonValue(std::move(array));
                continue;
            }
            expect(']');
            return JsonValue(std::move(array));
        }
    }

    JsonValue
    parseObject()
    {
        expect('{');
        JsonObject object;
        skipWhitespace();
        if (consumeIf('}'))
            return JsonValue(std::move(object));
        while (true) {
            skipWhitespace();
            std::string key = parseString();
            skipWhitespace();
            expect(':');
            JsonValue value = parseValue();
            // Written documents list keys in order, so the end is the
            // right hint; a repeated key keeps its last value.
            object.insert_or_assign(object.end(), std::move(key),
                                    std::move(value));
            skipWhitespace();
            if (consumeIf(',')) {
                skipWhitespace();
                if (consumeIf('}'))  // trailing comma
                    return JsonValue(std::move(object));
                continue;
            }
            expect('}');
            return JsonValue(std::move(object));
        }
    }
};

void
appendEscaped(std::string &out, const std::string &text)
{
    out += '"';
    // Each run of bytes that need no escape is appended whole.
    const char *run = text.data();
    const char *const end = run + text.size();
    for (const char *p = run; p != end; ++p) {
        const unsigned char c = static_cast<unsigned char>(*p);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(run, p);
        run = p + 1;
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default: {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                          static_cast<unsigned>(c));
            out += buffer;
          }
        }
    }
    out.append(run, end);
    out += '"';
}

/** "00", "01", ..., "99": two digits per table lookup. */
struct DigitPairs
{
    char text[200];
};

constexpr DigitPairs
makeDigitPairs()
{
    DigitPairs pairs{};
    for (int i = 0; i < 100; ++i) {
        pairs.text[2 * i] = static_cast<char>('0' + i / 10);
        pairs.text[2 * i + 1] = static_cast<char>('0' + i % 10);
    }
    return pairs;
}

constexpr DigitPairs kDigitPairs = makeDigitPairs();

/** Write @p value (< 100) as two digits at @p out. */
void
writePair(char *out, unsigned value)
{
    std::memcpy(out, kDigitPairs.text + 2 * value, 2);
}

using Uint128 = unsigned __int128;

/** 10^0 .. 10^22: the powers whose product with a 53-bit significand
 *  still fits in 128 bits. */
struct PowersOfTen
{
    Uint128 value[23];
};

constexpr PowersOfTen
makePowersOfTen()
{
    PowersOfTen powers{};
    Uint128 power = 1;
    for (Uint128 &entry : powers.value) {
        entry = power;
        power *= 10;
    }
    return powers;
}

constexpr PowersOfTen kPowersOfTen = makePowersOfTen();

/** Bytes formatSeventeenDigits may write: sign, 16 integer digits,
 *  the point and a fixed 16-byte copy of the fraction. */
constexpr std::size_t kNumberBuffer = 48;

constexpr std::uint64_t kTenToThe16 = 10000000000000000ULL;
constexpr std::uint64_t kTenToThe17 = 100000000000000000ULL;

/**
 * printf's "%.17g" of @p value, computed exactly in integers, written
 * at @p out, which has room for kNumberBuffer bytes (the layout copies
 * fixed sizes, past the end of the text); returns the end of the text,
 * or nullptr when @p value is outside the kernel's range and the
 * caller must format it otherwise.
 *
 * A normal double is m * 2^e2 with a 53-bit m. Its seventeen
 * significant digits are m * 10^(16 - E) / 2^-e2, rounded half to
 * even, where E = floor(log10 |value|): one 128-bit product, a shift
 * and the exact remainder. That needs e2 < 0 (|value| < 2^53) and
 * 0 <= 16 - E <= 22 (1e-6 <= |value| < 1e17); zero, subnormals and
 * everything else return nullptr.
 */
char *
formatSeventeenDigits(double value, char *out)
{
    const auto bits = std::bit_cast<std::uint64_t>(value);
    const int biased = static_cast<int>((bits >> 52) & 0x7ff);
    const int e2 = biased - 1075;
    if (biased == 0 || e2 >= 0)
        return nullptr;
    const std::uint64_t m =
        (bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52);
    // |value| lies in [2^b, 2^(b+1)) with b = e2 + 52, so E is
    // floor(b * log10 2) or one more; 78913 / 2^18 is log10 2 to well
    // within this kernel's range of b. (C++20 shifts negatives down.)
    int exponent = ((e2 + 52) * 78913) >> 18;
    const int shift = -e2;
    Uint128 product = 0;
    std::uint64_t digits = 0;
    for (;;) {
        const int power = 16 - exponent;
        if (power < 0 || power > 22)
            return nullptr;
        product = Uint128{m} * kPowersOfTen.value[power];
        digits = static_cast<std::uint64_t>(product >> shift);
        if (digits < kTenToThe17)
            break;
        ++exponent;
    }
    const Uint128 remainder = product & ((Uint128{1} << shift) - 1);
    const Uint128 half = Uint128{1} << (shift - 1);
    if (remainder > half || (remainder == half && (digits & 1) != 0))
        ++digits;
    if (digits == kTenToThe17) {
        // Rounded up to the next power of ten. (No double in this
        // range lies near enough below one to get here, but the carry
        // keeps the kernel exact without relying on that.)
        digits = kTenToThe16;
        ++exponent;
    }

    // The seventeen digits, then the significant ones. The layout below
    // copies fixed sizes, so the text has room past them.
    char text[33] = {};
    const auto high = static_cast<unsigned>(digits / 100000000);
    auto low = static_cast<unsigned>(digits % 100000000);
    auto middle = high % 100000000;
    text[0] = static_cast<char>('0' + high / 100000000);
    for (int i = 7; i >= 1; i -= 2) {
        writePair(text + i, middle % 100);
        middle /= 100;
        writePair(text + i + 8, low % 100);
        low /= 100;
    }
    int length = 17;
    while (text[length - 1] == '0')
        --length;

    char *p = out;
    if (value < 0.0)
        *p++ = '-';
    if (exponent < -4 || exponent >= 17) {
        // d[.ddd]e±XX; here |exponent| <= 17.
        p[0] = text[0];
        p[1] = '.';
        std::memcpy(p + 2, text + 1, 16);
        p += length > 1 ? length + 1 : 1;
        *p++ = 'e';
        *p++ = exponent < 0 ? '-' : '+';
        writePair(p, static_cast<unsigned>(std::abs(exponent)));
        p += 2;
    } else if (exponent >= 0) {
        // exponent + 1 integer digits, then the fraction if any.
        const int integral = exponent + 1;
        std::memcpy(p, text, 17);
        if (length > integral) {
            p[integral] = '.';
            std::memcpy(p + integral + 1, text + integral, 16);
            p += length + 1;
        } else {
            p += integral;
        }
    } else {
        // 0.000ddd: -exponent - 1 zeros after the point.
        std::memcpy(p, "0.0000", 6);
        p += 1 - exponent;
        std::memcpy(p, text, 17);
        p += length;
    }
    return p;
}

/**
 * Integral values of magnitude below 1e15 print as printf's "%.0f",
 * everything else as "%.17g" (which round-trips every bit).
 * formatSeventeenDigits covers most "%.17g" values; the rest, and
 * "%.0f", go to std::to_chars with a precision, which is specified to
 * produce exactly printf's bytes in the "C" locale, without printf's
 * format parsing and locale lookups. JSON has no spelling for
 * infinities or NaN, so those throw JsonTypeError rather than write a
 * document no reader parses.
 */
void
appendNumber(std::string &out, double value)
{
    if (!std::isfinite(value)) {
        throw JsonTypeError(
            std::string("JSON cannot represent the non-finite number ") +
            (std::isnan(value) ? "nan" : value > 0.0 ? "inf" : "-inf"));
    }
    char buffer[kNumberBuffer];
    char *end;
    if (value == std::floor(value) && std::fabs(value) < 1e15) {
        end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                            std::chars_format::fixed, 0)
                  .ptr;
    } else {
        end = formatSeventeenDigits(value, buffer);
        if (end == nullptr) {
            end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                std::chars_format::general, 17)
                      .ptr;
        }
    }
    out.append(buffer, end);
}

/** @p value as a "(got ...)" message shows it. */
std::string
describe(const JsonValue &value)
{
    if (value.isNumber())
        return shortest(value.asNumber());
    if (value.isArray())
        return "an array of " + std::to_string(value.asArray().size());
    if (value.isObject())
        return "an object";
    return value.dump();
}

/** Start a new line at @p depth when pretty-printing. */
void
appendBreak(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) *
                   static_cast<std::size_t>(depth),
               ' ');
}

/** The block saveJsonFile() streams a document through, so no writer
 *  holds a whole document's text. */
constexpr std::size_t kBlockBytes = std::size_t{16} << 10;

/** Write @p block to @p sink and clear it; throws
 *  std::ios_base::failure when the write fails. */
void
writeBlock(std::string &block, std::ostream &sink)
{
    sink.write(block.data(), static_cast<std::streamsize>(block.size()));
    if (!sink)
        throw std::ios_base::failure("JSON block write failed");
    block.clear();
}

/** writeBlock() once @p out holds a block, if there is a @p sink. */
void
flushFullBlock(std::string &out, std::ostream *sink)
{
    if (sink != nullptr && out.size() >= kBlockBytes)
        writeBlock(out, *sink);
}

} // namespace

std::string
shortest(double value)
{
    char buffer[32];
    return std::string(buffer,
                       std::to_chars(buffer, buffer + sizeof(buffer), value)
                           .ptr);
}

std::string
domainName(const Interval &range)
{
    const bool low = std::isfinite(range.lo);
    const bool high = std::isfinite(range.hi);
    if (low && high) {
        return std::string("a number in ") + (range.lo_open ? "(" : "[") +
               shortest(range.lo) + ", " + shortest(range.hi) +
               (range.hi_open ? ")" : "]");
    }
    if (low)
        return std::string("a number ") + (range.lo_open ? "> " : ">= ") +
               shortest(range.lo);
    if (high)
        return std::string("a number ") + (range.hi_open ? "< " : "<= ") +
               shortest(range.hi);
    return "a number";
}

std::string
domainName(const CountRange &range)
{
    if (range.hi == kMaxCount) {
        return range.lo == 0 ? "a non-negative integer"
                             : "an integer >= " + std::to_string(range.lo);
    }
    return "an integer in [" + std::to_string(range.lo) + ", " +
           std::to_string(range.hi) + "]";
}

bool
CountRange::fits(double x, std::uint64_t &out) const
{
    // Every hi <= 2^63 - 1 rounds to at most 2^63, so the cast of a
    // value that passes the double compares is defined; the integer
    // compares then reject what rounding let through.
    if (!(x == std::floor(x) && x >= static_cast<double>(lo) &&
          x <= static_cast<double>(hi)))
        return false;
    out = static_cast<std::uint64_t>(x);
    return out >= lo && out <= hi;
}

bool
JsonValue::asBool() const
{
    if (!isBool())
        throw JsonTypeError("JSON value is not a boolean");
    return std::get<bool>(data_);
}

double
JsonValue::asNumber() const
{
    if (!isNumber())
        throw JsonTypeError("JSON value is not a number");
    return std::get<double>(data_);
}

const std::string &
JsonValue::asString() const
{
    if (!isString())
        throw JsonTypeError("JSON value is not a string");
    return std::get<std::string>(data_);
}

const JsonArray &
JsonValue::asArray() const
{
    if (!isArray())
        throw JsonTypeError("JSON value is not an array");
    return std::get<JsonArray>(data_);
}

JsonArray &
JsonValue::asArray()
{
    if (!isArray())
        throw JsonTypeError("JSON value is not an array");
    return std::get<JsonArray>(data_);
}

const JsonObject &
JsonValue::asObject() const
{
    if (!isObject())
        throw JsonTypeError("JSON value is not an object");
    return std::get<JsonObject>(data_);
}

JsonObject &
JsonValue::asObject()
{
    if (!isObject())
        throw JsonTypeError("JSON value is not an object");
    return std::get<JsonObject>(data_);
}

bool
JsonValue::contains(const std::string &key) const
{
    return isObject() && asObject().count(key) > 0;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonObject &object = asObject();
    const auto it = object.find(key);
    if (it == object.end())
        throw JsonTypeError("missing '" + key + "'");
    return it->second;
}

std::string
JsonValue::stringOr(const std::string &key, const std::string &fallback) const
{
    return contains(key) ? at(key).asString() : fallback;
}

void
JsonValue::dumpTo(std::string &out, int indent, int depth,
                  std::ostream *sink) const
{
    if (isNull()) {
        out += "null";
    } else if (isBool()) {
        out += asBool() ? "true" : "false";
    } else if (isNumber()) {
        appendNumber(out, asNumber());
    } else if (isString()) {
        appendEscaped(out, asString());
    } else if (isArray()) {
        const JsonArray &array = asArray();
        if (array.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (std::size_t i = 0; i < array.size(); ++i) {
            if (i > 0)
                out += ',';
            appendBreak(out, indent, depth + 1);
            array[i].dumpTo(out, indent, depth + 1, sink);
            flushFullBlock(out, sink);
        }
        appendBreak(out, indent, depth);
        out += ']';
    } else {
        const JsonObject &object = asObject();
        if (object.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        bool first = true;
        for (const auto &[key, value] : object) {
            if (!first)
                out += ',';
            first = false;
            appendBreak(out, indent, depth + 1);
            appendEscaped(out, key);
            out += indent > 0 ? ": " : ":";
            value.dumpTo(out, indent, depth + 1, sink);
            flushFullBlock(out, sink);
        }
        appendBreak(out, indent, depth);
        out += '}';
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0, nullptr);
    return out;
}

JsonValue
JsonValue::parse(std::string_view text)
{
    Parser parser(text);
    return parser.parseDocument();
}

std::uint64_t
count(const JsonValue &object, const std::string &key, CountRange range)
{
    const JsonValue &value = object.at(key);
    std::uint64_t parsed = 0;
    if (!value.isNumber() || !range.fits(value.asNumber(), parsed))
        badField(key, domainName(range), value);
    return parsed;
}

std::uint64_t
count(const JsonValue &object, const std::string &key,
      std::uint64_t fallback, CountRange range)
{
    return object.contains(key) ? count(object, key, range) : fallback;
}

double
number(const JsonValue &object, const std::string &key, Interval range)
{
    const JsonValue &value = object.at(key);
    if (!value.isNumber() || !range.contains(value.asNumber()))
        badField(key, domainName(range), value);
    return value.asNumber();
}

double
number(const JsonValue &object, const std::string &key, double fallback,
       Interval range)
{
    return object.contains(key) ? number(object, key, range) : fallback;
}

std::vector<double>
numbers(const JsonValue &object, const std::string &key, Interval range)
{
    const JsonValue &value = object.at(key);
    if (!value.isArray())
        badField(key, "an array of numbers", value);
    const JsonArray &entries = value.asArray();
    std::vector<double> out;
    out.reserve(entries.size());
    for (const JsonValue &entry : entries) {
        if (!entry.isNumber() || !range.contains(entry.asNumber())) {
            badField(key + "[" + std::to_string(out.size()) + "]",
                     domainName(range), entry);
        }
        out.push_back(entry.asNumber());
    }
    return out;
}

std::vector<std::uint64_t>
counts(const JsonValue &object, const std::string &key, CountRange range)
{
    const JsonValue &value = object.at(key);
    if (!value.isArray())
        badField(key, "an array of integers", value);
    const JsonArray &entries = value.asArray();
    std::vector<std::uint64_t> out(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].isNumber() ||
            !range.fits(entries[i].asNumber(), out[i])) {
            badField(key + "[" + std::to_string(i) + "]",
                     domainName(range), entries[i]);
        }
    }
    return out;
}

void
badField(const std::string &key, std::string_view domain,
         const JsonValue &value)
{
    throw JsonTypeError("'" + key + "' must be " + std::string(domain) +
                        " (got " + describe(value) + ")");
}

namespace detail {

void
badChoice(const std::string &key, const std::vector<std::string_view> &names,
          const JsonValue &value)
{
    std::string domain = "one of ";
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (i > 0)
            domain += ", ";
        domain += "'" + std::string(names[i]) + "'";
    }
    badField(key, domain, value);
}

} // namespace detail

JsonValue
loadJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        util::fatal("cannot open JSON file '", path, "'");
    // Sized up front where the file has a size; pipes are read to EOF.
    std::string text;
    std::error_code error;
    const std::uintmax_t size = std::filesystem::file_size(path, error);
    if (!error)
        text.reserve(size);
    char block[1 << 16];
    while (in.read(block, sizeof(block)) || in.gcount() > 0)
        text.append(block, static_cast<std::size_t>(in.gcount()));
    if (in.bad())
        util::fatal("cannot read JSON file '", path, "'");
    return JsonValue::parse(text);
}

void
saveJsonFile(const std::string &path, const JsonValue &value, int indent)
{
    // Unbuffered: every write is a whole block of dumpTo()'s.
    std::ofstream file;
    file.rdbuf()->pubsetbuf(nullptr, 0);
    file.open(path, std::ios::binary);
    if (!file)
        util::fatal("cannot write JSON file '", path, "'");
    // A failure leaves no truncated document behind; a device or FIFO
    // (/dev/full, a pipe to another process) is never removed.
    const auto fail = [&](const auto &...detail) {
        file.close();
        std::error_code error;
        if (std::filesystem::is_regular_file(path, error))
            std::filesystem::remove(path, error);
        util::fatal("cannot write JSON file '", path, "'", detail...);
    };
    try {
        std::string block;
        block.reserve(kBlockBytes);
        value.dumpTo(block, indent, 0, &file);
        block += '\n';
        writeBlock(block, file);
    } catch (const JsonTypeError &error) {
        fail(": ", error.what());
    } catch (const std::ios_base::failure &) {
        fail();
    }
    file.close();
    if (!file)
        fail();
}

} // namespace act::config
