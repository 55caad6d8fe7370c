// A/B metrics-equivalence harness for the bulk-charging engine.
//
// Machine::send_bulk / birth_bulk / death_bulk promise to be
// *metrics-identical* to their scalar per-event decompositions: same
// Metrics totals, same per-phase records, same conformance verdict. This
// harness makes that contract testable: run_ab executes an algorithm twice
// on fresh Machines — once with bulk charging disabled (every *_bulk call
// decomposes into scalar events; the reference) and once with the bulk
// fast path enabled — each under its own ConformanceChecker plus a
// CongestionMap (so the batched on_send_bulk link decomposition is proven
// byte-identical to the scalar replay, link by link), and compares the two
// runs field by field. tests/test_bulk_equivalence.cpp drives every
// Table-1 algorithm through it.
#pragma once

#include "spatial/congestion.hpp"
#include "spatial/machine.hpp"
#include "spatial/metrics.hpp"

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace scm {

/// RAII save/restore of the process-wide bulk-charging switch.
class ScopedBulkCharging {
 public:
  explicit ScopedBulkCharging(bool enabled)
      : saved_(Machine::bulk_charging()) {
    Machine::set_bulk_charging(enabled);
  }
  ~ScopedBulkCharging() { Machine::set_bulk_charging(saved_); }
  ScopedBulkCharging(const ScopedBulkCharging&) = delete;
  ScopedBulkCharging& operator=(const ScopedBulkCharging&) = delete;

 private:
  bool saved_;
};

/// One execution of the algorithm under one charging mode.
struct AbRun {
  Metrics totals{};
  std::map<std::string, Metrics> phases;
  /// Canonical per-link occupancy (CongestionMap::sorted_links) — the
  /// scalar run records the per-message replay, the bulk run the batched
  /// on_send_bulk decomposition.
  std::vector<std::pair<Link, index_t>> links;
  index_t congested_clock{0};
  bool conformance_ok{false};
  std::string conformance_report;  ///< empty when clean
};

/// The two runs and their comparison.
struct AbResult {
  AbRun scalar;
  AbRun bulk;
  bool totals_equal{false};
  bool phases_equal{false};
  bool links_equal{false};  ///< per-link occupancy + congested clock

  /// True when totals, per-phase records, and per-link occupancy match
  /// exactly and both runs were conformance-clean.
  [[nodiscard]] bool ok() const {
    return totals_equal && phases_equal && links_equal &&
           scalar.conformance_ok && bulk.conformance_ok;
  }

  /// Multi-line description of every mismatch; empty when ok().
  [[nodiscard]] std::string diff() const;
};

/// Runs `algorithm` twice on fresh Machines — scalar reference first, then
/// the bulk fast path — each traced by a non-strict ConformanceChecker
/// (verified at the end), and compares Metrics totals and per-phase maps
/// for exact equality. The process-wide bulk-charging switch is restored on
/// return. The callback must be deterministic and self-contained: it
/// receives the Machine to run on and must not depend on charging mode
/// (except, of course, through the *_bulk calls under test).
[[nodiscard]] AbResult run_ab(const std::function<void(Machine&)>& algorithm);

}  // namespace scm
