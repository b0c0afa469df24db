#include "util/strings.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace act::util {

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
startsWith(std::string_view text, std::string_view prefix)
{
    return text.size() >= prefix.size() &&
           text.substr(0, prefix.size()) == prefix;
}

std::string
formatFixed(double value, int decimals)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    return buffer;
}

std::string
formatSig(double value, int significant_digits)
{
    if (value == 0.0)
        return "0";
    const double magnitude = std::fabs(value);
    char buffer[64];
    if (magnitude >= 1e6 || magnitude < 1e-4) {
        std::snprintf(buffer, sizeof(buffer), "%.*e",
                      significant_digits - 1, value);
        return buffer;
    }
    const int leading_exponent =
        static_cast<int>(std::floor(std::log10(magnitude)));
    const int decimals =
        std::max(0, significant_digits - leading_exponent - 1);
    std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
    return buffer;
}

} // namespace act::util
