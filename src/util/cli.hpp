// Minimal command-line flag parsing for the benchmark/example binaries:
// `--name=value` or `--name value` pairs with typed lookups and defaults.
//
// Typoed observability flags must not fail silently (an ignored
// `--trace-jsn` means "the artifact you asked for was never written"), so
// the parser tracks every flag name the binary looks up and
// warn_unknown() reports the parsed flags nothing ever queried, with a
// nearest-name suggestion. Positional arguments and `--benchmark_*` flags
// stay exempt so the parser composes with google-benchmark's own CLI.
#pragma once

#include <cstdint>
#include <exception>
#include <iosfwd>
#include <map>
#include <set>
#include <string>

namespace scm::util {

/// Parsed command-line flags. Unknown positional arguments are ignored so
/// the parser composes with google-benchmark's own flags.
class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// Numeric lookups parse the whole value: an empty value, trailing
  /// characters ("5e3" for an integer, "12x") or overflow throw
  /// std::invalid_argument naming the flag and the value.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// Warns (one line per flag, to `os`) about every parsed `--name` that
  /// no has()/get*() call ever asked for — the typo detector for opt-in
  /// flags. Suggests the closest queried name when one is plausibly the
  /// intended spelling. Flags starting with "benchmark" are exempt
  /// (google-benchmark parses those itself). Call once, after all
  /// lookups; returns the number of unknown flags reported.
  int warn_unknown(std::ostream& os) const;
  int warn_unknown() const;  ///< warn_unknown(std::cerr)

  /// Reports a malformed flag value (what get_int/get_double throw) and a
  /// usage line on std::cerr, then exits with status 2, the usage-error
  /// status scm_fuzz returns too.
  [[noreturn]] void exit_usage(const std::exception& e) const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  // Lookup methods are logically const; tracking what they were asked
  // for is warn_unknown bookkeeping, not observable flag state.
  mutable std::set<std::string> queried_;
};

}  // namespace scm::util
