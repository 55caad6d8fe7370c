// The fuzz loop: seeded case generation, execution under the conformance
// and batch-independence checkers, functional + cost oracles, metamorphic
// and bulk-A/B cadences, replay, shrinking, and bound fitting.
//
// Determinism contract: a run is fully determined by (master seed, case
// index). Case `i` uses property `all_properties()[i % #props]` and the
// per-case Rng seeded with derive_case_seed(seed, i); `--replay=<seed>:<i>`
// re-derives exactly that instance and re-applies the same cadence checks
// the main loop would have (metamorphic on every `metamorphic_every`-th
// case, bulk A/B on every `ab_every`-th). The registry order is therefore
// part of the replay contract — see docs/TESTING.md.
#pragma once

#include "testing/bounds.hpp"
#include "testing/property.hpp"

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace scm::testing {

/// Knobs of one fuzz run (defaults = the ctest smoke tier).
struct RunnerConfig {
  std::uint64_t seed{2026};
  index_t cases{520};
  double time_budget_seconds{0};  ///< 0 = no wall-clock budget
  index_t max_n{0};               ///< 0 = each property's own max_n
  index_t metamorphic_every{5};   ///< cadence; 0 disables
  index_t ab_every{7};            ///< cadence; 0 disables
  index_t shrink_attempts{400};
  bool fit{false};                ///< record ratios instead of checking
  std::vector<std::string> only;  ///< property-name filter; empty = all
  bool verbose{false};
};

/// One failing case, fully reproducible.
struct FailureRecord {
  std::string property;
  index_t case_index{0};
  std::string replay_token;  ///< "<seed>:<case>"
  std::string kind;    ///< "functional" / "conformance" / "independence"
                       ///< / "bound:<metric>" / "metamorphic:<variant>"
                       ///< / "bulk-ab"
  std::string detail;  ///< oracle-specific explanation
  CaseInput original;
  CaseInput shrunk;
  index_t shrink_attempts{0};

  /// The artifact block CI uploads: replay token, kind, detail, and the
  /// shrunk input dump.
  [[nodiscard]] std::string str() const;
};

/// Outcome of a whole run.
struct FuzzReport {
  index_t cases_run{0};
  index_t cases_skipped{0};  ///< generation retries / invalid instances
  std::map<std::string, index_t> per_property;
  std::vector<FailureRecord> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Drives the fuzz loop. Stateless between calls except for the bound set
/// (which fit mode updates in place).
class FuzzRunner {
 public:
  FuzzRunner(RunnerConfig config, BoundSet bounds);

  /// The budgeted loop: runs `config.cases` cases (or until the time
  /// budget expires), printing progress and failures to `log`.
  FuzzReport run(std::ostream& log);

  /// Replays exactly one case from its token. Returns std::nullopt when
  /// the token does not parse.
  std::optional<FuzzReport> replay(const std::string& token,
                                   std::ostream& log);

  /// The (possibly fit-updated) certificate table.
  [[nodiscard]] const BoundSet& bounds() const { return bounds_; }

  /// Re-seeds the runner between fit passes: one fitting run per master
  /// seed widens the ratio tail the constants are fitted on (see
  /// --fit-seeds in fuzz_main).
  void set_seed(std::uint64_t seed) { config_.seed = seed; }

  /// Parses "<seed>:<case>". std::nullopt on malformed tokens.
  static std::optional<std::pair<std::uint64_t, index_t>> parse_token(
      const std::string& token);

 private:
  /// The properties selected by config.only, in registry order.
  [[nodiscard]] std::vector<const Property*> selected() const;

  /// Generates the instance of (seed, case_index) for `prop`.
  [[nodiscard]] CaseInput generate_case(const Property& prop,
                                        index_t case_index) const;

  /// Runs every check the main loop applies to this case; on failure
  /// returns (kind, detail).
  struct Verdict {
    bool ok{true};
    std::string kind;
    std::string detail;
  };
  Verdict evaluate(const Property& prop, const CaseInput& in,
                   bool check_metamorphic, bool check_ab);

  /// Executes + shrinks one failing case into a FailureRecord.
  FailureRecord report_failure(const Property& prop, const CaseInput& in,
                               index_t case_index, Verdict first,
                               bool check_metamorphic, bool check_ab);

  RunnerConfig config_;
  BoundSet bounds_;
};

}  // namespace scm::testing
