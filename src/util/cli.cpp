#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace scm::util {

namespace {

/// Levenshtein distance, small-string use only (flag names).
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

/// A numeric flag whose value does not parse in full is a usage error,
/// not a zero: `--cases=abc` must not run zero cases and report success.
[[noreturn]] void throw_unparsable(const std::string& name,
                                   const std::string& value,
                                   const char* expected) {
  throw std::invalid_argument("--" + name + "=\"" + value + "\" is not " +
                              expected);
}

}  // namespace

Cli::Cli(int argc, char** argv) : program_(argc > 0 ? argv[0] : "scm") {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) continue;
    arg.remove_prefix(2);
    const auto eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags_[std::string(arg.substr(0, eq))] = std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && std::string_view(argv[i + 1]).substr(0, 2) !=
                                   std::string_view("--")) {
      flags_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      flags_[std::string(arg)] = "true";
    }
  }
}

bool Cli::has(const std::string& name) const {
  queried_.insert(name);
  return flags_.contains(name);
}

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  queried_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  queried_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& value = it->second;
  std::int64_t parsed = 0;
  const char* const end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  if (value.empty() || ec != std::errc{} || ptr != end) {
    throw_unparsable(name, value, "an integer");
  }
  return parsed;
}

double Cli::get_double(const std::string& name, double fallback) const {
  queried_.insert(name);
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& value = it->second;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || errno == ERANGE ||
      end != value.c_str() + value.size()) {
    throw_unparsable(name, value, "a number");
  }
  return parsed;
}

int Cli::warn_unknown(std::ostream& os) const {
  int unknown = 0;
  for (const auto& [name, value] : flags_) {
    if (queried_.contains(name)) continue;
    if (std::string_view(name).starts_with("benchmark")) continue;
    ++unknown;
    os << "warning: unknown flag --" << name;
    // Suggest the closest flag the binary actually understands, when the
    // distance is small enough to be a plausible typo.
    std::string best;
    std::size_t best_dist = std::string::npos;
    for (const std::string& known : queried_) {
      const std::size_t d = edit_distance(name, known);
      if (d < best_dist || (d == best_dist && known < best)) {
        best = known;
        best_dist = d;
      }
    }
    if (!best.empty() && best_dist <= std::max<std::size_t>(2, best.size() / 3)) {
      os << " (did you mean --" << best << "?)";
    }
    os << "\n";
  }
  return unknown;
}

int Cli::warn_unknown() const { return warn_unknown(std::cerr); }

void Cli::exit_usage(const std::exception& e) const {
  std::cerr << program_ << ": " << e.what() << "\n"
            << "usage: " << program_ << " [--name=value | --name value]...\n";
  std::exit(2);
}

}  // namespace scm::util
