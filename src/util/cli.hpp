// Tiny command-line flag parser used by examples and bench harnesses,
// and the entry wrapper every one of their mains runs through.
//
// Supports `--name value` and `--name=value` forms plus boolean `--name`.
// Numeric values follow the knob grammar (src/util/knob.hpp): a value
// outside it throws an Error naming the flag.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace cagnet {

/// Run a program's main body: an exception escaping `body` is printed to
/// stderr (its what(), after the program name) and makes the exit status
/// 1, never an abort.
int run_main(int argc, char** argv, int (*body)(int argc, char** argv));

class CliArgs {
 public:
  CliArgs(int argc, char** argv);

  /// True if --name was passed (with or without a value).
  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  /// The value of --name as a decimal integer (knob::parse_int), or
  /// `fallback` when the flag is absent.
  long get_int(const std::string& name, long fallback) const;
  /// The value of --name as a finite real (knob::parse_real).
  double get_double(const std::string& name, double fallback) const;

  /// Comma-separated integer list, e.g. --procs 4,16,64
  /// (knob::parse_int_list).
  std::vector<long> get_int_list(const std::string& name,
                                 const std::vector<long>& fallback) const;

  /// Non-flag positional arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace cagnet
