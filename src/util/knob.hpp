// The strict grammar of the CAGNET_* environment knobs, and the library's
// one read of the process environment. Knobs are parsed at first use,
// never during static initialisation; a value outside the grammar throws
// an Error naming the knob, the value and the accepted spellings.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace cagnet::knob {

/// The environment variable `name`; nullopt when unset or empty (empty
/// selects the default, like unset).
std::optional<std::string> env(const char* name);

/// A knob lookup: knob::env, or a test's fake environment.
using Lookup = std::function<std::optional<std::string>(const char* name)>;

/// Throw the Error for `value` of `knob`, listing the `accepted` spellings.
[[noreturn]] void reject(const char* knob, std::string_view value,
                         std::string_view accepted);

/// 1/on/ON/true/TRUE or 0/off/OFF/false/FALSE.
bool parse_flag(const char* knob, std::string_view value);

/// Plain decimal digits (no sign, space or suffix) spelling 1..max.
std::int64_t parse_positive(const char* knob, std::string_view value,
                            std::int64_t max);

/// Plain decimal digits with an optional leading '-' (no '+', space or
/// suffix) spelling an int64.
std::int64_t parse_int(const char* knob, std::string_view value);

/// A finite decimal real ("0.5", "-3", "1e9"; no space, suffix, inf or
/// nan).
double parse_real(const char* knob, std::string_view value);

/// A comma list of parse_int items.
std::vector<std::int64_t> parse_int_list(const char* knob,
                                         std::string_view value);

/// A comma list of parse_positive items; "inf" and "all" mean `unbounded`.
std::vector<std::int64_t> parse_positive_list(const char* knob,
                                              std::string_view value,
                                              std::int64_t max,
                                              std::int64_t unbounded);

/// One of `names` (a registry key).
std::string parse_name(const char* knob, std::string_view value,
                       std::span<const std::string> names);

}  // namespace cagnet::knob
