// Standard observability wiring for bench and example binaries.
//
// Every table/figure bench and example accepts the same flags:
//
//   --profile=<path>     write the versioned JSON run report (enables the
//                        critical-path witness and the congestion map
//                        unless --witness=0)
//   --trace-json=<path>  write a Chrome trace_event JSON of the phase
//                        scopes (open in Perfetto / chrome://tracing)
//   --profile-ascii      print the ASCII phase-tree report to stdout
//   --witness=<0|1>      force the witness recorder off/on (default: on
//                        exactly when --profile is given)
//   --congestion         track per-link occupancy (CongestionMap): print
//                        the ASCII congestion report, add the
//                        "congestion" section to --profile reports and a
//                        counter track to --trace-json traces
//   --congestion-heatmap print the ASCII link heatmap (implies
//                        --congestion)
//   --load-heatmap       print the ASCII per-cell load heatmap (implies
//                        the LoadMap that --profile already enables)
//
// A ProfileSession parses those flags, attaches a Profiler as the
// process-global trace sink when any are set, and writes the artifacts in
// finish() (or its destructor). Machines clear the profile on
// construction/reset, so each artifact describes the *last* simulated run
// of the binary — for a bench, the final (largest) benchmark iteration.
// finish() also runs Cli::warn_unknown, so a typoed flag
// (--trace-jsn=...) is reported instead of silently producing nothing.
#pragma once

#include "spatial/profile.hpp"
#include "util/cli.hpp"

#include <memory>
#include <string>

namespace scm::util {

/// RAII owner of the opt-in profiling pipeline of one binary.
class ProfileSession {
 public:
  /// Reads the observability flags from `cli` (which must outlive this
  /// session) and, when any are present, installs a Profiler as the
  /// process-global trace sink. A malformed value (`--witness` with no
  /// number) exits with a usage error, status 2 (Cli::exit_usage).
  explicit ProfileSession(const Cli& cli);
  ~ProfileSession();
  ProfileSession(const ProfileSession&) = delete;
  ProfileSession& operator=(const ProfileSession&) = delete;

  /// True when at least one observability flag was given.
  [[nodiscard]] bool active() const { return profiler_ != nullptr; }

  /// The attached profiler; nullptr when inactive.
  [[nodiscard]] Profiler* profiler() { return profiler_.get(); }

  /// Detaches the sink, writes the requested artifacts (announcing each
  /// path on stdout), and reports unknown flags. Idempotent; the
  /// destructor calls it.
  void finish();

 private:
  const Cli* cli_;
  std::unique_ptr<Profiler> profiler_;
  std::string report_path_;
  std::string trace_path_;
  bool ascii_{false};
  bool congestion_{false};
  bool congestion_heatmap_{false};
  bool load_heatmap_{false};
  bool finished_{false};
};

}  // namespace scm::util
