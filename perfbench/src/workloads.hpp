// The benchmark's workloads: seeded inputs, one timed call per iteration,
// and an output oracle on every call.
#pragma once

#include "spatial/metrics.hpp"
#include "spatial/trace.hpp"

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace perfbench {

/// Host seconds of one set-up.
struct SetupTimes {
  double setup_s{0.0};  ///< seeded input generation + input placement
  double place_s{0.0};  ///< input placement alone (GridArray factory)
};

/// Result of one call.
struct CallResult {
  double wall_s{0.0};    ///< host wall-clock of the call
  double export_s{0.0};  ///< part of wall_s spent exporting reports
  scm::Metrics metrics;  ///< the live Machine's totals after the call
  bool ok{false};        ///< the output oracle held
  std::string failure;   ///< why the oracle failed, when !ok
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the input from `seed` and places it on the grid, replacing
  /// any previous input. Builds the oracle's reference outside the timing.
  virtual SetupTimes setup(std::uint64_t seed) = 0;

  /// Runs the algorithm once on a fresh Machine. `recorder`, when non-null,
  /// is attached to that Machine. With `with_sinks`, the workload's sink
  /// set (if it has one) is installed as the global trace sink for the call
  /// and its reports are exported inside the timed region.
  virtual CallResult call(scm::TraceSink* recorder, bool with_sinks) = 0;

  /// True when the workload attaches sinks.
  [[nodiscard]] virtual bool has_sinks() const { return false; }

  /// Name of the layer that does the algorithm's host work.
  [[nodiscard]] virtual const char* host_layer() const = 0;
};

/// The workload named `name`; nullptr for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name);

/// Environment variables that switch charging off the default serial path.
inline constexpr const char* kEngineEnv[] = {"SCM_THREADS", "SCM_TILE",
                                             "SCM_PARALLEL_MIN_BATCH"};

/// The first of kEngineEnv that is set in the environment, or nullptr.
[[nodiscard]] const char* engine_env_set();

}  // namespace perfbench
