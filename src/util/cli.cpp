#include "src/util/cli.hpp"

#include <cstdint>
#include <cstdio>
#include <exception>

#include "src/util/error.hpp"
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

const std::string* CliArgs::find(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool CliArgs::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string CliArgs::get(const std::string& name,
                         const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

long CliArgs::get_int(const std::string& name, long fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  static_assert(sizeof(long) == sizeof(std::int64_t));
  return static_cast<long>(knob::parse_int(("--" + name).c_str(), *value));
}

double CliArgs::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  return value == nullptr
             ? fallback
             : knob::parse_real(("--" + name).c_str(), *value);
}

std::vector<long> CliArgs::get_int_list(
    const std::string& name, const std::vector<long>& fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  const std::vector<std::int64_t> items =
      knob::parse_int_list(("--" + name).c_str(), *value);
  return std::vector<long>(items.begin(), items.end());
}

void CliArgs::reject_unread() const {
  std::string unread;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) != 0) continue;
    unread += (unread.empty() ? "--" : ", --") + name;
  }
  if (!unread.empty()) throw Error("unknown flag(s): " + unread);
}

}  // namespace cagnet
