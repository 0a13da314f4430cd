// RunConfig and the knob grammar (src/util/knob.hpp): the strict parse of
// every CAGNET_* string, the defects of the per-knob parsers it replaced
// pinned as typed Errors, a seeded mutation fuzz over the two env-string
// grammars (RunConfig::parse and FaultPlan::parse), and the first-use
// errors of the process settings, one thread or four at once.
#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <functional>
#include <latch>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/comm/contract_check.hpp"
#include "src/comm/fault.hpp"
#include "src/core/run_config.hpp"
#include "src/core/dist_sampler.hpp"
#include "src/graph/partition.hpp"
#include "src/util/knob.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace cagnet {
namespace {

using Env = std::map<std::string, std::string>;

RunConfig parse_env(const Env& env) {
  return RunConfig::parse(
      [&env](const char* name) -> std::optional<std::string> {
        const auto it = env.find(name);
        if (it == env.end()) return std::nullopt;
        return it->second;
      });
}

/// The environment a RunConfig::to_string() line spells.
Env env_of(const std::string& line) {
  Env env;
  std::size_t start = 0;
  while (start < line.size()) {
    std::size_t end = line.find(' ', start);
    if (end == std::string::npos) end = line.size();
    const std::string item = line.substr(start, end - start);
    const std::size_t eq = item.find('=');
    if (eq != std::string::npos) env[item.substr(0, eq)] = item.substr(eq + 1);
    start = end + 1;
  }
  return env;
}

std::string describe(const Env& env) {
  std::string out;
  for (const auto& [name, value] : env) out += name + "=\"" + value + "\" ";
  return out;
}

/// `env` must fail with an Error naming `knob`, `value` and the accepted
/// spellings.
void expect_rejected(const Env& env, const std::string& knob,
                     const std::string& value) {
  try {
    const RunConfig run = parse_env(env);
    ADD_FAILURE() << describe(env) << "parsed as " << run.to_string();
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(knob), std::string::npos) << what;
    EXPECT_NE(what.find('"' + value + '"'), std::string::npos) << what;
    EXPECT_NE(what.find("accepted"), std::string::npos) << what;
  }
}

TEST(RunConfigParse, UnsetAndEmptyKnobsKeepTheDefaults) {
  EXPECT_EQ(parse_env({}), RunConfig{});
  Env empty;
  for (const char* knob :
       {"CAGNET_HALO", "CAGNET_COMPRESS", "CAGNET_STALE", "CAGNET_PREAGG",
        "CAGNET_SAMPLE", "CAGNET_SAMPLE_FANOUT", "CAGNET_SAMPLE_BATCH"}) {
    empty[knob] = "";
  }
  EXPECT_EQ(parse_env(empty), RunConfig{});
}

TEST(RunConfigParse, AcceptsEverySpelling) {
  for (const char* on : {"1", "on", "ON", "true", "TRUE"}) {
    const RunConfig run = parse_env(
        {{"CAGNET_HALO", on}, {"CAGNET_PREAGG", on}, {"CAGNET_SAMPLE", on}});
    EXPECT_TRUE(run.halo && run.preagg && run.sample) << on;
  }
  for (const char* off : {"0", "off", "OFF", "false", "FALSE"}) {
    const RunConfig run = parse_env({{"CAGNET_HALO", off}});
    EXPECT_FALSE(run.halo) << off;
  }
  EXPECT_EQ(parse_env({{"CAGNET_COMPRESS", "int8"}}).compress,
            CompressMode::kInt8);
  for (const char* off : {"off", "OFF", "0"}) {
    EXPECT_EQ(parse_env({{"CAGNET_STALE", off}}).stale_k, 0) << off;
  }
  EXPECT_EQ(parse_env({{"CAGNET_STALE", "2147483647"}}).stale_k, INT_MAX);
  const RunConfig sampled =
      parse_env({{"CAGNET_SAMPLE_FANOUT", "inf,all,3"},
                 {"CAGNET_SAMPLE_BATCH", "9223372036854775807"}});
  EXPECT_EQ(sampled.sample_fanouts,
            (std::vector<Index>{kSampleAll, kSampleAll, 3}));
  EXPECT_EQ(sampled.sample_batch, INT64_MAX);
}

TEST(RunConfigParse, MalformedKnobsAreTypedErrors) {
  // Each of these once aborted every binary during static initialisation
  // (exit 134).
  expect_rejected({{"CAGNET_SAMPLE_BATCH", "abc"}}, "CAGNET_SAMPLE_BATCH",
                  "abc");
  expect_rejected({{"CAGNET_SAMPLE_FANOUT", "4,x"}}, "CAGNET_SAMPLE_FANOUT",
                  "4,x");
  expect_rejected({{"CAGNET_STALE", "abc"}}, "CAGNET_STALE", "abc");
  // An atol -> int narrowing once read these as "off" and "adaptive".
  expect_rejected({{"CAGNET_STALE", "4294967296"}}, "CAGNET_STALE",
                  "4294967296");
  expect_rejected({{"CAGNET_STALE", "99999999999999999999"}}, "CAGNET_STALE",
                  "99999999999999999999");
  // Flags outside the grammar were once silently off.
  expect_rejected({{"CAGNET_HALO", "yes"}}, "CAGNET_HALO", "yes");
  expect_rejected({{"CAGNET_PREAGG", "2"}}, "CAGNET_PREAGG", "2");
  expect_rejected({{"CAGNET_SAMPLE", "On"}}, "CAGNET_SAMPLE", "On");
  expect_rejected({{"CAGNET_COMPRESS", "zstd"}}, "CAGNET_COMPRESS", "zstd");
  expect_rejected({{"CAGNET_SAMPLE_FANOUT", "4,,2"}}, "CAGNET_SAMPLE_FANOUT",
                  "4,,2");
  expect_rejected({{"CAGNET_SAMPLE_BATCH", "+8"}}, "CAGNET_SAMPLE_BATCH",
                  "+8");
  // Retired modes: the adaptive refresh policy and the 1-bit and fp16
  // codecs.
  expect_rejected({{"CAGNET_STALE", "adaptive"}}, "CAGNET_STALE", "adaptive");
  expect_rejected({{"CAGNET_COMPRESS", "1bit"}}, "CAGNET_COMPRESS", "1bit");
  expect_rejected({{"CAGNET_COMPRESS", "fp16"}}, "CAGNET_COMPRESS", "fp16");
}

TEST(RunConfigString, RoundTripsThroughTheEnvSpelling) {
  RunConfig run;
  run.halo = true;
  run.compress = CompressMode::kInt8;
  run.stale_k = 5;
  run.preagg = true;
  run.sample = true;
  run.sample_fanouts = {kSampleAll, 4, 1};
  run.sample_batch = 17;
  EXPECT_EQ(run.to_string(),
            "CAGNET_HALO=1 CAGNET_COMPRESS=int8 CAGNET_STALE=5 "
            "CAGNET_PREAGG=1 CAGNET_SAMPLE=1 CAGNET_SAMPLE_FANOUT=inf,4,1 "
            "CAGNET_SAMPLE_BATCH=17");
  EXPECT_EQ(parse_env(env_of(run.to_string())), run);
  EXPECT_EQ(parse_env(env_of(RunConfig{}.to_string())), RunConfig{});
}

TEST(KnobGrammar, ProcessSettingSpellings) {
  for (const char* on : {"1", "on", "ON", "true", "TRUE"}) {
    EXPECT_TRUE(knob::parse_flag("CAGNET_CHECK", on));
  }
  for (const char* off : {"0", "off", "OFF", "false", "FALSE"}) {
    EXPECT_FALSE(knob::parse_flag("CAGNET_CHECK", off));
  }
  // Every spelling but 0/off/OFF once turned the checker on.
  EXPECT_THROW(knob::parse_flag("CAGNET_CHECK", "yes"), Error);
  EXPECT_THROW(knob::parse_flag("CAGNET_CHECK", "no"), Error);
  // A non-number once silently meant the hardware thread count.
  for (const char* bad : {"abc", "0", "-1", "+4", " 4", "4 ", "4097",
                          "99999999999999999999"}) {
    EXPECT_THROW(knob::parse_positive("CAGNET_THREADS", bad, 4096), Error)
        << bad;
  }
  EXPECT_EQ(knob::parse_positive("CAGNET_THREADS", "4096", 4096), 4096);
  // An unregistered partitioner once silently ran "block".
  std::vector<std::string> names;
  for (const PartitionerSpec& spec : partitioner_registry()) {
    names.push_back(spec.name);
  }
  try {
    knob::parse_name("CAGNET_PARTITION", "metis", names);
    ADD_FAILURE() << "metis parsed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"metis\""), std::string::npos) << what;
    EXPECT_NE(what.find("greedy-bfs"), std::string::npos) << what;
  }
  EXPECT_EQ(knob::parse_name("CAGNET_PARTITION", "random", names), "random");
}

/// The process settings' first uses and grammars, one row per knob.
struct ProcessSetting {
  const char* knob;
  std::function<void()> use;
  std::function<void(const std::string&)> accepts;
};

std::vector<ProcessSetting> process_settings() {
  return {
      {"CAGNET_THREADS", [] { (void)thread_budget(); },
       [](const std::string& v) {
         knob::parse_positive("CAGNET_THREADS", v, 4096);
       }},
      {"CAGNET_PARTITION", [] { (void)default_partitioner_name(); },
       [](const std::string& v) {
         std::vector<std::string> names;
         for (const PartitionerSpec& spec : partitioner_registry()) {
           names.push_back(spec.name);
         }
         knob::parse_name("CAGNET_PARTITION", v, names);
       }},
      {"CAGNET_CHECK", [] { (void)contract::enabled(); },
       [](const std::string& v) { knob::parse_flag("CAGNET_CHECK", v); }},
      {"CAGNET_FAULT", [] { (void)fault_plan(); },
       [](const std::string& v) { (void)FaultPlan::parse(v); }},
  };
}

/// Whether the process environment's value of `setting` is in its
/// grammar (an unset knob selects the default).
bool env_accepted(const ProcessSetting& setting) {
  const std::optional<std::string> raw = knob::env(setting.knob);
  if (!raw) return true;
  try {
    setting.accepts(*raw);
  } catch (const Error&) {
    return false;
  }
  return true;
}

TEST(ProcessKnobs, FirstUseFollowsTheGrammar) {
  // ctest also runs this under knob strings the old parsers aborted on
  // at load or silently replaced by a default; reaching this body at all
  // shows no knob is read during static initialisation. Each use either
  // succeeds or throws an Error naming the knob, exactly as the grammar
  // accepts the process environment's value.
  for (const ProcessSetting& setting : process_settings()) {
    if (env_accepted(setting)) {
      EXPECT_NO_THROW(setting.use()) << setting.knob;
      continue;
    }
    try {
      setting.use();
      ADD_FAILURE() << setting.knob << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(setting.knob), std::string::npos)
          << e.what();
    }
  }
  // The run modes parse together: from_env fails on its first bad knob.
  std::optional<RunConfig> from_parse;
  try {
    from_parse = RunConfig::parse(knob::env);
  } catch (const Error&) {
  }
  if (from_parse) {
    EXPECT_EQ(RunConfig::from_env(), *from_parse);
  } else {
    EXPECT_THROW(RunConfig::from_env(), Error);
  }
}

TEST(ProcessKnobs, ConcurrentFirstUseReachesEveryThread) {
  // ctest runs this case alone under the malformed knob strings of
  // knob_strings_fail_at_first_use, so 4 threads make each setting's
  // first use at the same moment. Each must get the outcome the grammar
  // gives — the typed Error naming the knob, or the value — and none may
  // hang on the setting's one-time initialization.
  constexpr int kThreads = 4;
  for (const ProcessSetting& setting : process_settings()) {
    const bool valid = env_accepted(setting);
    std::latch start(kThreads);
    std::atomic<int> succeeded{0};
    std::atomic<int> named{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        start.arrive_and_wait();
        try {
          setting.use();
          succeeded.fetch_add(1);
        } catch (const Error& e) {
          if (std::string(e.what()).find(setting.knob) != std::string::npos) {
            named.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(succeeded.load(), valid ? kThreads : 0) << setting.knob;
    EXPECT_EQ(named.load(), valid ? 0 : kThreads) << setting.knob;
  }
}

// ---- Seeded mutation fuzz over the two env-string grammars ----

/// Deterministic mutator of valid knob strings: byte flips, truncations,
/// digit runs past INT_MAX and INT64_MAX, doubled and empty separators.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string s) {
    const int ops = 1 + static_cast<int>(rng_.next_below(3));
    for (int i = 0; i < ops; ++i) {
      switch (rng_.next_below(7)) {
        case 0:  // byte flip (any byte but NUL)
          if (!s.empty()) {
            s[pick(s.size())] =
                static_cast<char>(1 + rng_.next_below(255));
          }
          break;
        case 1:  // truncation
          s.resize(pick(s.size() + 1));
          break;
        case 2:  // a digit run just past INT_MAX
          s.insert(pick(s.size() + 1), "2147483648");
          break;
        case 3:  // digit runs past INT64_MAX (and UINT64_MAX)
          s.insert(pick(s.size() + 1), rng_.next_below(2) == 0
                                           ? "9223372036854775808"
                                           : "99999999999999999999");
          break;
        case 4: {  // a doubled separator
          const std::size_t at = s.find_first_of(",:;", pick(s.size() + 1));
          s.insert(at == std::string::npos ? s.size() : at,
                   std::string(1, separator()));
          break;
        }
        case 5:  // an empty item at either end
          if (rng_.next_below(2) == 0) {
            s.insert(s.begin(), separator());
          } else {
            s.push_back(separator());
          }
          break;
        default:  // an empty value
          s.clear();
          break;
      }
    }
    return s;
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.next_below(n));
  }

 private:
  char separator() { return ",:;"[rng_.next_below(3)]; }

  Rng rng_;
};

constexpr int kFuzzInputs = 12000;

TEST(KnobFuzz, RunConfigParseAcceptsOrThrowsError) {
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      corpus = {
          {"CAGNET_HALO", {"1", "on", "TRUE", "0", "off"}},
          {"CAGNET_COMPRESS", {"off", "int8"}},
          {"CAGNET_STALE", {"off", "1", "4", "2147483647"}},
          {"CAGNET_PREAGG", {"1", "false"}},
          {"CAGNET_SAMPLE", {"1", "OFF"}},
          {"CAGNET_SAMPLE_FANOUT", {"15,10,5", "inf,all", "2,2,2", "7"}},
          {"CAGNET_SAMPLE_BATCH", {"64", "3", "9223372036854775807"}},
      };
  Mutator mutator(20261017);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kFuzzInputs; ++i) {
    Env env;
    for (const auto& [knob, values] : corpus) {
      if (mutator.pick(2) == 0) env[knob] = values[mutator.pick(values.size())];
    }
    const auto& [knob, values] = corpus[mutator.pick(corpus.size())];
    env[knob] = mutator.mutate(values[mutator.pick(values.size())]);
    try {
      const RunConfig run = parse_env(env);
      ++accepted;
      const std::string line = run.to_string();
      EXPECT_EQ(parse_env(env_of(line)), run) << describe(env) << "-> " << line;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << describe(env) << "threw a non-Error: " << e.what();
    }
  }
  EXPECT_GT(accepted, kFuzzInputs / 10);
  EXPECT_GT(rejected, kFuzzInputs / 10);
}

TEST(KnobFuzz, FaultPlanParseAcceptsOrThrowsError) {
  const std::vector<std::string> corpus = {
      "kill:2:trpose:post:3",
      "delay:0:any:wait:1:7",
      "poison:1:halo:charge:2",
      "kill:0:dense:post:s5",
      "kill:1:compressed:wait:40;delay:3:control:post:2:1",
      "poison:0:sparse:post:1;;kill:2:transpose:charge:9",
  };
  Mutator mutator(17);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kFuzzInputs; ++i) {
    const std::string spec =
        mutator.mutate(corpus[mutator.pick(corpus.size())]);
    try {
      (void)FaultPlan::parse(spec);
      ++accepted;
    } catch (const Error&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "\"" << spec << "\" threw a non-Error: " << e.what();
    }
  }
  EXPECT_GT(accepted, kFuzzInputs / 20);
  EXPECT_GT(rejected, kFuzzInputs / 10);
}

}  // namespace
}  // namespace cagnet
