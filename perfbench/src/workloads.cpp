#include "workloads.hpp"

#include "recorder.hpp"

#include "collectives/operators.hpp"
#include "collectives/scan.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/profile.hpp"
#include "spatial/rng.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <vector>

namespace perfbench {

namespace {

using scm::GridArray;
using scm::index_t;
using scm::Layout;
using scm::Machine;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// mergesort2d on n seeded uniform doubles, row-major on the canonical
/// square. With sinks it is the `--profile=<path> --congestion` set: a
/// Profiler with witness, load map, congestion and independence, whose
/// JSON run report and Chrome trace are exported in memory on every call.
class MergesortWorkload final : public Workload {
 public:
  MergesortWorkload(index_t n, bool sinks) : n_(n), sinks_(sinks) {
    if (sinks_) {
      scm::Profiler::Options options;
      options.witness = true;
      options.load_map = true;
      options.congestion = true;
      options.independence = true;
      profiler_.emplace(options);
    }
  }

  SetupTimes setup(std::uint64_t seed) override {
    input_.reset();
    const auto t0 = Clock::now();
    const std::vector<double> values =
        scm::random_doubles(seed, static_cast<std::size_t>(n_));
    const auto t1 = Clock::now();
    input_.emplace(GridArray<double>::from_values_square({0, 0}, values,
                                                         Layout::kRowMajor));
    (void)input_->coords();
    const SetupTimes times{seconds_since(t0), seconds_since(t1)};
    expected_ = values;
    std::sort(expected_.begin(), expected_.end());
    return times;
  }

  CallResult call(scm::TraceSink* recorder, bool with_sinks) override {
    scm::Profiler* const prof =
        with_sinks && profiler_ ? &*profiler_ : nullptr;
    ScopedGlobalTrace global(prof);
    CallResult r;
    Machine m;  // construction resets the profiler
    m.set_trace(recorder);
    const auto t0 = Clock::now();
    input_->announce(m);
    const GridArray<double> out = scm::mergesort2d(m, *input_);
    std::size_t exported = 0;
    if (prof != nullptr) {
      const auto te = Clock::now();
      exported = prof->json_report().size() + prof->chrome_trace_json().size();
      r.export_s = seconds_since(te);
    }
    r.wall_s = seconds_since(t0);
    m.set_trace(nullptr);
    r.metrics = m.metrics();
    r.ok = true;
    if (out.values() != expected_) {
      r.ok = false;
      r.failure = "output is not the sorted input";
    }
    if (prof != nullptr) {
      const std::size_t conflicts =
          prof->independence()->report().violations.size();
      if (!(prof->totals() == r.metrics)) {
        r.ok = false;
        r.failure = "Profiler totals " + prof->totals().str() +
                    " differ from Machine metrics " + r.metrics.str();
      } else if (conflicts != 0) {
        r.ok = false;
        r.failure = std::to_string(conflicts) + " independence conflicts";
      } else if (exported == 0) {
        r.ok = false;
        r.failure = "empty report export";
      }
    }
    return r;
  }

  [[nodiscard]] bool has_sinks() const override { return sinks_; }
  [[nodiscard]] const char* host_layer() const override { return "sort"; }

 private:
  index_t n_;
  bool sinks_;
  std::optional<scm::Profiler> profiler_;
  std::optional<GridArray<double>> input_;
  std::vector<double> expected_;
};

/// Inclusive Z-order scan (int64 +) over n seeded values on a square.
class ScanWorkload final : public Workload {
 public:
  explicit ScanWorkload(index_t n) : n_(n) {}

  SetupTimes setup(std::uint64_t seed) override {
    input_.reset();
    const auto t0 = Clock::now();
    const std::vector<std::int64_t> values = scm::random_ints(
        seed, static_cast<std::size_t>(n_), -1'000'000'000, 1'000'000'000);
    const auto t1 = Clock::now();
    input_.emplace(GridArray<std::int64_t>::from_values_square(
        {0, 0}, values, Layout::kZOrder));
    (void)input_->coords();
    const SetupTimes times{seconds_since(t0), seconds_since(t1)};
    expected_.resize(values.size());
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      acc += values[i];
      expected_[i] = acc;
    }
    return times;
  }

  CallResult call(scm::TraceSink* recorder, bool /*with_sinks*/) override {
    CallResult r;
    Machine m;
    m.set_trace(recorder);
    const auto t0 = Clock::now();
    input_->announce(m);
    const GridArray<std::int64_t> out = scm::scan(m, *input_, scm::Plus{});
    r.wall_s = seconds_since(t0);
    m.set_trace(nullptr);
    r.metrics = m.metrics();
    r.ok = out.values() == expected_;
    if (!r.ok) r.failure = "output differs from the host prefix sums";
    return r;
  }

  [[nodiscard]] const char* host_layer() const override {
    return "collectives";
  }

 private:
  index_t n_;
  std::optional<GridArray<std::int64_t>> input_;
  std::vector<std::int64_t> expected_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view name) {
  if (name == "mergesort_2e18") {
    return std::make_unique<MergesortWorkload>(index_t{1} << 18, false);
  }
  if (name == "scan_2e20") {
    return std::make_unique<ScanWorkload>(index_t{1} << 20);
  }
  if (name == "mergesort_profiled_2e14") {
    return std::make_unique<MergesortWorkload>(index_t{1} << 14, true);
  }
  return nullptr;
}

const char* engine_env_set() {
  for (const char* var : kEngineEnv) {
    if (std::getenv(var) != nullptr) return var;
  }
  return nullptr;
}

}  // namespace perfbench
