#include "src/core/run_config.hpp"

#include <algorithm>
#include <climits>
#include <limits>
#include <string_view>

#include "src/util/error.hpp"

namespace cagnet {

namespace {

/// kSampleAll: an uncapped fanout, and the largest batch.
constexpr Index kUncapped = std::numeric_limits<Index>::max();

int parse_stale(std::string_view value) {
  if (value == "off" || value == "OFF" || value == "0") return 0;
  if (value.find_first_not_of("0123456789") != std::string_view::npos) {
    knob::reject("CAGNET_STALE", value,
                 "off, OFF, 0, or an integer from 1 to " +
                     std::to_string(INT_MAX));
  }
  return static_cast<int>(knob::parse_positive("CAGNET_STALE", value,
                                               INT_MAX));
}

}  // namespace

void RunConfig::validate() const {
  CAGNET_CHECK(stale_k >= 0, "RunConfig: stale_k must be >= 0");
  CAGNET_CHECK(!sample_fanouts.empty() && sample_batch > 0 &&
                   std::ranges::all_of(sample_fanouts,
                                       [](Index f) { return f > 0; }),
               "RunConfig: sampling needs positive fanouts and batch");
}

std::string RunConfig::to_string() const {
  std::string fanouts;
  for (Index fanout : sample_fanouts) {
    if (!fanouts.empty()) fanouts += ',';
    fanouts += fanout == kUncapped ? "inf" : std::to_string(fanout);
  }
  const std::string stale = stale_k == 0 ? "off" : std::to_string(stale_k);
  return "CAGNET_HALO=" + std::to_string(halo) +
         " CAGNET_COMPRESS=" + compress_mode_name(compress) +
         " CAGNET_STALE=" + stale +
         " CAGNET_PREAGG=" + std::to_string(preagg) +
         " CAGNET_SAMPLE=" + std::to_string(sample) +
         " CAGNET_SAMPLE_FANOUT=" + fanouts +
         " CAGNET_SAMPLE_BATCH=" + std::to_string(sample_batch);
}

RunConfig RunConfig::parse(const knob::Lookup& lookup) {
  RunConfig run;
  // Each knob's value, unless unset or empty (the default).
  const auto value = [&](const char* name) {
    std::optional<std::string> v = lookup(name);
    return v && !v->empty() ? v : std::nullopt;
  };
  const auto flag = [&](const char* name, bool& out) {
    if (const auto v = value(name)) out = knob::parse_flag(name, *v);
  };
  flag("CAGNET_HALO", run.halo);
  flag("CAGNET_PREAGG", run.preagg);
  flag("CAGNET_SAMPLE", run.sample);
  if (const auto v = value("CAGNET_SAMPLE_BATCH")) {
    run.sample_batch =
        knob::parse_positive("CAGNET_SAMPLE_BATCH", *v, kUncapped);
  }
  if (const auto v = value("CAGNET_COMPRESS")) {
    run.compress = parse_compress_mode(*v);
  }
  if (const auto v = value("CAGNET_STALE")) run.stale_k = parse_stale(*v);
  if (const auto v = value("CAGNET_SAMPLE_FANOUT")) {
    run.sample_fanouts = knob::parse_positive_list(
        "CAGNET_SAMPLE_FANOUT", *v, kUncapped - 1, kUncapped);
  }
  run.validate();
  return run;
}

RunConfig RunConfig::from_env() { return parse(knob::env); }

}  // namespace cagnet
