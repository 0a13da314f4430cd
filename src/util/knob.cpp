#include "src/util/knob.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "src/util/error.hpp"

namespace cagnet::knob {

namespace {

constexpr std::string_view kOn[] = {"1", "on", "ON", "true", "TRUE"};
constexpr std::string_view kOff[] = {"0", "off", "OFF", "false", "FALSE"};

/// The integer `value` spells when it is plain digits in [1, max].
std::optional<std::int64_t> positive(std::string_view value,
                                     std::int64_t max) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string_view::npos) {
    return std::nullopt;
  }
  std::int64_t out = 0;
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, out);
  if (ec != std::errc() || end != last || out < 1 || out > max) {
    return std::nullopt;
  }
  return out;
}

/// The int64 `value` spells when it is plain digits with an optional
/// leading '-'.
std::optional<std::int64_t> integer(std::string_view value) {
  const std::string_view digits =
      value.starts_with('-') ? value.substr(1) : value;
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string_view::npos) {
    return std::nullopt;
  }
  std::int64_t out = 0;
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, out);
  if (ec != std::errc() || end != last) return std::nullopt;
  return out;
}

/// Split `value` at commas into `parse`d items; nullopt when any item
/// (an empty one included) fails.
template <typename Parse>
std::optional<std::vector<std::int64_t>> comma_list(std::string_view value,
                                                    Parse parse) {
  std::vector<std::int64_t> out;
  for (std::size_t start = 0;;) {
    const std::size_t comma = value.find(',', start);
    const auto item = parse(value.substr(
        start, comma == std::string_view::npos ? comma : comma - start));
    if (!item) return std::nullopt;
    out.push_back(*item);
    if (comma == std::string_view::npos) return out;
    start = comma + 1;
  }
}

}  // namespace

std::optional<std::string> env(const char* name) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return std::nullopt;
  return std::string(value);
}

void reject(const char* knob, std::string_view value,
            std::string_view accepted) {
  throw Error(std::string(knob) + "=\"" + std::string(value) +
              "\" is invalid (accepted: " + std::string(accepted) + ")");
}

bool parse_flag(const char* knob, std::string_view value) {
  if (std::ranges::find(kOn, value) != std::end(kOn)) return true;
  if (std::ranges::find(kOff, value) != std::end(kOff)) return false;
  reject(knob, value, "1, on, ON, true, TRUE, 0, off, OFF, false, FALSE");
}

std::int64_t parse_positive(const char* knob, std::string_view value,
                            std::int64_t max) {
  const std::optional<std::int64_t> out = positive(value, max);
  if (!out) reject(knob, value, "an integer from 1 to " + std::to_string(max));
  return *out;
}

std::int64_t parse_int(const char* knob, std::string_view value) {
  const std::optional<std::int64_t> out = integer(value);
  if (!out) reject(knob, value, "a decimal integer");
  return *out;
}

double parse_real(const char* knob, std::string_view value) {
  double out = 0;
  const char* last = value.data() + value.size();
  const auto [end, ec] = std::from_chars(value.data(), last, out);
  if (ec != std::errc() || end != last || !std::isfinite(out)) {
    reject(knob, value, "a finite decimal number");
  }
  return out;
}

std::vector<std::int64_t> parse_int_list(const char* knob,
                                         std::string_view value) {
  auto out = comma_list(value, integer);
  if (!out) reject(knob, value, "a comma list of decimal integers");
  return *out;
}

std::vector<std::int64_t> parse_positive_list(const char* knob,
                                              std::string_view value,
                                              std::int64_t max,
                                              std::int64_t unbounded) {
  auto out = comma_list(value, [&](std::string_view item) {
    return item == "inf" || item == "all"
               ? std::optional<std::int64_t>(unbounded)
               : positive(item, max);
  });
  if (!out) {
    reject(knob, value,
           "a comma list of integers from 1 to " + std::to_string(max) +
               ", \"inf\" or \"all\"");
  }
  return *out;
}

std::string parse_name(const char* knob, std::string_view value,
                       std::span<const std::string> names) {
  std::string accepted;
  for (const std::string& name : names) {
    if (name == value) return name;
    accepted += (accepted.empty() ? "" : ", ") + name;
  }
  reject(knob, value, accepted);
}

}  // namespace cagnet::knob
