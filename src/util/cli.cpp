#include "src/util/cli.hpp"

#include <cstdint>
#include <cstdio>
#include <exception>

#include "src/util/knob.hpp"

namespace cagnet {

int run_main(int argc, char** argv, int (*body)(int argc, char** argv)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "cagnet",
                 e.what());
    return 1;
  }
}

CliArgs::CliArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "";
    }
  }
}

bool CliArgs::has(const std::string& name) const {
  return values_.count(name) != 0;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

long CliArgs::get_int(const std::string& name, long fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  static_assert(sizeof(long) == sizeof(std::int64_t));
  return static_cast<long>(
      knob::parse_int(("--" + name).c_str(), it->second));
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  return it == values_.end()
             ? fallback
             : knob::parse_real(("--" + name).c_str(), it->second);
}

std::vector<long> CliArgs::get_int_list(
    const std::string& name, const std::vector<long>& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::vector<std::int64_t> items =
      knob::parse_int_list(("--" + name).c_str(), it->second);
  return std::vector<long>(items.begin(), items.end());
}

}  // namespace cagnet
