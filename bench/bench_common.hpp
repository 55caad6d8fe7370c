// Shared infrastructure for the paper-reproduction benchmark harness.
//
// Every bench binary follows the same pattern:
//   * register google-benchmark cases (one per algorithm x input size)
//     that run the simulator once and expose energy / depth / distance as
//     counters;
//   * record each measurement in a process-wide registry;
//   * after benchmark::RunSpecifiedBenchmarks, print the paper-style
//     series table and fit the growth shapes against the claimed bounds,
//     emitting PASS/FAIL per claim (INCONCLUSIVE when a series is too
//     degenerate to fit).
//
// The registry, claim checking, and table printing live in
// src/util/series.{hpp,cpp} (unit-tested, no google-benchmark
// dependency); this header only adds the google-benchmark glue.
// Observability: every bench main constructs a util::Cli (after
// benchmark::Initialize, which consumes its own flags) and a
// util::ProfileSession, so `--profile=<path>` / `--trace-json=<path>` /
// `--profile-ascii` work on every table/figure binary and the emitted
// artifact explains the numbers of the last (largest) benchmark run. See
// docs/OBSERVABILITY.md.
#pragma once

#include "spatial/congestion.hpp"
#include "spatial/metrics.hpp"
#include "util/cli.hpp"
#include "util/profile_session.hpp"
#include "util/series.hpp"
#include "util/table.hpp"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace scm::bench {

// The series store, Claim type, and print_series/print_ratio/metric_value
// helpers live in scm::util; benches keep addressing them as scm::bench::.
using namespace scm::util;  // NOLINT(google-build-using-namespace)

/// The process-wide measurement store (bench-side alias of the
/// unit-tested util::SeriesRegistry).
using Registry = util::SeriesRegistry;

/// Problem-size window from the standard --min-n / --max-n sweep flags.
/// Lets CI smoke runs (and impatient humans) cap a sweep's sizes without
/// editing the hardcoded Arg lists. Defaults to unbounded.
struct SweepRange {
  std::int64_t min_n{std::numeric_limits<std::int64_t>::min()};
  std::int64_t max_n{std::numeric_limits<std::int64_t>::max()};

  [[nodiscard]] bool contains(std::int64_t n) const {
    return n >= min_n && n <= max_n;
  }
};

/// The process-wide sweep window read by skip_outside_sweep.
inline SweepRange& sweep_range() {
  static SweepRange range;
  return range;
}

/// Standard per-main setup: fully buffer stdout (util::buffer_stdio) and
/// read --min-n / --max-n into the sweep window; a malformed value exits
/// with a usage error (status 2). Call right after constructing the Cli
/// (benchmark cases run later, from RunSpecifiedBenchmarks).
inline void configure_sweep(const util::Cli& cli) {
  util::buffer_stdio();
  try {
    sweep_range().min_n = cli.get_int("min-n", sweep_range().min_n);
    sweep_range().max_n = cli.get_int("max-n", sweep_range().max_n);
  } catch (const std::invalid_argument& e) {
    cli.exit_usage(e);
  }
}

/// True (after burning the mandatory iteration loop and labeling the row
/// "skipped") when the sweep point `n` falls outside --min-n / --max-n.
/// Call first thing in a sweeping benchmark body and return immediately
/// on true: the skipped size then never reaches report(), so series fits
/// see only the sizes that actually ran. (google-benchmark 1.7 has no
/// SkipWithMessage, and SkipWithError would fail the run — an empty
/// labeled iteration is the supported way to no-op a registered case.)
inline bool skip_outside_sweep(benchmark::State& state, std::int64_t n) {
  if (sweep_range().contains(n)) return false;
  state.SetLabel("skipped (outside --min-n/--max-n)");
  for (auto _ : state) {
  }
  return true;
}

/// Publishes a measurement both as google-benchmark counters and into the
/// registry for the post-run analysis table.
inline void report(benchmark::State& state, const std::string& series,
                   double n, const Metrics& m) {
  state.counters["energy"] = static_cast<double>(m.energy);
  state.counters["depth"] = static_cast<double>(m.depth());
  state.counters["distance"] = static_cast<double>(m.distance());
  state.counters["messages"] = static_cast<double>(m.messages);
  Registry::instance().add(series, n, m);
}

/// Publishes a per-iteration congestion-sink measurement (diagnostic
/// metrics, strictly outside the paper's three) as counters and custom
/// series values, so ratio tables and power-law fits can compare
/// algorithms on congestion robustness.
inline void report_congestion(benchmark::State& state,
                              const std::string& series, double n,
                              const CongestionMap& cm) {
  state.counters["peak_link_load"] =
      static_cast<double>(cm.max_link_load());
  state.counters["congested_clock"] =
      static_cast<double>(cm.congested_clock());
  Registry::instance().add_value(series, n, "peak_link_load",
                                 static_cast<double>(cm.max_link_load()));
  Registry::instance().add_value(
      series, n, "congested_clock",
      static_cast<double>(cm.congested_clock()));
}

/// Fits and prints the power-law shape of a custom congestion metric of
/// one series (no claim attached: the paper makes no statement about
/// congestion, so the fitted exponent is reported, not judged).
inline void print_congestion_fit(const std::string& series,
                                 const std::string& metric) {
  const auto& samples = Registry::instance().series(series);
  if (!series_has_extra(samples, metric)) return;
  std::vector<double> ns;
  std::vector<double> ys;
  for (const Sample& s : samples) {
    ns.push_back(s.n);
    ys.push_back(sample_value(s, metric));
  }
  const util::PowerFit fit = util::fit_power_law(ns, ys);
  std::printf("  %s %s fitted %s\n", series.c_str(), metric.c_str(),
              util::describe_power(fit).c_str());
}

}  // namespace scm::bench
