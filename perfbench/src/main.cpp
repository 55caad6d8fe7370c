// perfbench: end-to-end, layered benchmark of the scm simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One single-threaded client in one process issues calls back to back
// (a closed loop) for --seconds, and at least kMinCalls times. Every call
// runs on a fresh Machine and is checked by the workload's output oracle;
// on the pinned seeds its model quantities are also checked against
// pins.hpp. --trace 0 reports the end-to-end metrics; --trace 1 is the
// separate traced run reporting per-layer metrics (see README.md). The last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
#include "pins.hpp"
#include "recorder.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#include "spatial/congestion.hpp"
#include "spatial/independence.hpp"
#include "spatial/machine.hpp"
#include "spatial/profile.hpp"
#include "spatial/trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/// Set-ups before each timed call. Spreading them over the run samples the
/// host's state throughout it, as the calls do; setup_s and place_s are
/// their medians.
constexpr int kSetupsPerCall = 3;
/// Timed calls per end-to-end run at least: enough for wall_tail_s.
constexpr std::size_t kMinCalls = kTailBeyond + 1;
/// Calls per phase of the traced run at least.
constexpr std::size_t kMinTracedCalls = 3;
/// Recorder chunk bound in buffered entries (~72 MB of messages).
constexpr std::size_t kChunkEntries = std::size_t{1} << 20;

struct Args {
  std::string workload;
  std::uint64_t seed{kDefaultSeed};
  double seconds{10.0};
  bool trace{false};
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || args.seconds <= 0) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// One named metric of the final JSON line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Calls made, failures seen, and the reference Metrics every call of one
/// input must reproduce.
class Ledger {
 public:
  Ledger(const std::string& workload, std::uint64_t seed)
      : pin_(find_pin(workload, seed)) {}

  /// Records one call.
  void add(const CallResult& r) {
    ++attempted_;
    std::string why = r.ok ? "" : r.failure;
    if (why.empty() && pin_ != nullptr && !pin_->matches(r.metrics)) {
      why = "model quantities " + r.metrics.str() + " differ from the pin " +
            pin_->str();
    }
    if (why.empty() && reference_ && !(*reference_ == r.metrics)) {
      why = "model quantities " + r.metrics.str() +
            " differ from the first call's " + reference_->str();
    }
    if (!reference_) reference_ = r.metrics;
    if (why.empty()) return;
    ++failed_;
    std::fprintf(stderr, "perfbench: call %llu failed: %s\n",
                 static_cast<unsigned long long>(attempted_), why.c_str());
  }

  /// A failure found outside a call (the traced run's replay identity).
  void fail(const std::string& why) {
    ++extra_failures_;
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const {
    return failed_ == 0 && extra_failures_ == 0;
  }
  [[nodiscard]] const scm::Metrics& metrics() const { return *reference_; }
  [[nodiscard]] bool pinned() const { return pin_ != nullptr; }

 private:
  const Pin* pin_;
  std::optional<scm::Metrics> reference_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
  std::uint64_t extra_failures_{0};
};

/// Set-up time samples of a run.
struct Setups {
  std::vector<double> setup_s;
  std::vector<double> place_s;

  void run(Workload& w, std::uint64_t seed) {
    for (int i = 0; i < kSetupsPerCall; ++i) {
      const SetupTimes t = w.setup(seed);
      setup_s.push_back(t.setup_s);
      place_s.push_back(t.place_s);
    }
  }
};

/// Runs set-ups and calls until `seconds` have passed and at least
/// `min_calls` calls were timed; returns the wall-clock samples of the
/// calls.
std::vector<double> timed_calls(Workload& w, Ledger& ledger, Setups& setups,
                                std::uint64_t seed, double seconds,
                                std::size_t min_calls, bool with_sinks,
                                std::vector<double>* export_s = nullptr) {
  std::vector<double> walls;
  const auto t0 = Clock::now();
  while (walls.size() < min_calls || since(t0) < seconds) {
    setups.run(w, seed);
    const CallResult r = w.call(nullptr, with_sinks);
    ledger.add(r);
    walls.push_back(r.wall_s);
    if (export_s != nullptr) export_s->push_back(r.export_s);
  }
  return walls;
}

std::vector<Metric> end_to_end(Workload& w, Ledger& ledger,
                               const Args& args) {
  Setups setups;
  const std::vector<double> walls = timed_calls(
      w, ledger, setups, args.seed, args.seconds, kMinCalls, true);
  const Tail t = *tail(walls);
  const double wall = median(walls);
  const scm::Metrics& mt = ledger.metrics();
  std::printf("wall_tail_s is p%.1f of %zu calls\n", t.percentile,
              t.samples);
  return {
      {"wall_s", wall, "s"},
      {"wall_tail_s", t.value, "s"},
      {"msgs_per_s", static_cast<double>(mt.messages) / wall, "1/s"},
      {"setup_s", median(setups.setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"energy", static_cast<double>(mt.energy), "hops"},
      {"depth", static_cast<double>(mt.depth()), "msgs"},
      {"distance", static_cast<double>(mt.distance()), "hops"},
      {"messages", static_cast<double>(mt.messages), "msgs"},
  };
}

/// The profiled workload's sinks, each fed the recorded stream alone.
struct Sinks {
  static scm::Profiler::Options core_options() {
    scm::Profiler::Options o;
    o.independence = false;
    return o;
  }
  static scm::Profiler::Options witness_options() {
    scm::Profiler::Options o = core_options();
    o.witness = true;
    return o;
  }
  static scm::IndependenceChecker::Config non_strict() {
    scm::IndependenceChecker::Config c;
    c.strict = false;
    return c;
  }

  scm::Profiler core{core_options()};
  scm::Profiler witness{witness_options()};
  scm::LoadMap load_map;
  scm::CongestionMap congestion;
  scm::IndependenceChecker independence{non_strict()};
};

/// Per-layer times of one recorded call.
struct LayerTimes {
  double traced_wall{0.0};  ///< the recorded call minus its replay time
  double charge{0.0};
  double phase{0.0};
  double core{0.0};
  double witness{0.0};
  double loadmap{0.0};
  double route{0.0};
  double check{0.0};
  std::size_t conflicts{0};
  StreamCounts counts;
};

/// Adds the host seconds `f` takes to `acc`.
template <class F>
void timed(double& acc, F&& f) {
  const auto t0 = Clock::now();
  f();
  acc += since(t0);
}

LayerTimes recorded_call(Workload& w, Ledger& ledger) {
  scm::Machine shadow;
  scm::Machine phases_only;
  LayerTimes lt;
  // Sinks are replayed only where the workload attaches them; elsewhere the
  // layer is absent from the call and reported as 0.
  std::optional<Sinks> sinks;
  if (w.has_sinks()) sinks.emplace();
  ChunkedRecorder recorder(kChunkEntries, [&](Chunk& chunk) {
    timed(lt.charge, [&] { replay(shadow, chunk); });
    timed(lt.phase, [&] { replay_phases(phases_only, chunk); });
    if (!sinks) return;
    timed(lt.core, [&] { replay(sinks->core, chunk); });
    timed(lt.witness, [&] { replay(sinks->witness, chunk); });
    timed(lt.loadmap, [&] { replay(sinks->load_map, chunk); });
    timed(lt.route, [&] { replay(sinks->congestion, chunk); });
    timed(lt.check, [&] { replay(sinks->independence, chunk); });
  });
  const CallResult r = w.call(&recorder, true);
  lt.traced_wall = r.wall_s - recorder.flush_seconds();
  recorder.finish();
  ledger.add(r);
  if (!(shadow.metrics() == r.metrics)) {
    ledger.fail("replay identity: shadow Machine " + shadow.metrics().str() +
                " differs from the live run's " + r.metrics.str());
  }
  lt.counts = recorder.counts();
  if (sinks) {
    lt.witness -= lt.core;
    lt.conflicts = sinks->independence.report().violations.size();
    if (lt.conflicts != 0) {
      ledger.fail("the replayed stream has " + std::to_string(lt.conflicts) +
                  " independence conflicts");
    }
  }
  return lt;
}

std::vector<Metric> traced(Workload& w, Ledger& ledger, const Args& args) {
  // Untraced baseline (the workload as measured end to end), then, for a
  // workload with sinks, the same call without them.
  const double share = w.has_sinks() ? args.seconds / 3 : args.seconds / 2;
  Setups setups;
  std::vector<double> export_s;
  const double wall = median(timed_calls(w, ledger, setups, args.seed, share,
                                         kMinTracedCalls, true, &export_s));
  const double bare =
      w.has_sinks() ? median(timed_calls(w, ledger, setups, args.seed, share,
                                         kMinTracedCalls, false))
                    : wall;
  std::vector<LayerTimes> runs;
  const auto t0 = Clock::now();
  while (runs.size() < kMinTracedCalls || since(t0) < share) {
    runs.push_back(recorded_call(w, ledger));
  }
  const StreamCounts& c = runs.front().counts;
  for (const LayerTimes& lt : runs) {
    if (!(lt.counts == c)) {
      ledger.fail("recorded streams of one input differ between calls");
    }
  }
  std::printf("recorded stream: %llu chunks of at most %zu entries\n",
              static_cast<unsigned long long>(c.chunks), kChunkEntries);

  std::size_t max_conflicts = 0;
  for (const LayerTimes& lt : runs) {
    max_conflicts = std::max(max_conflicts, lt.conflicts);
  }
  const auto med = [&](double LayerTimes::*field) {
    std::vector<double> xs;
    for (const LayerTimes& lt : runs) xs.push_back(lt.*field);
    return median(xs);
  };
  const double charge = med(&LayerTimes::charge);
  const double host = bare - charge;
  const double sinks_s = med(&LayerTimes::core) + med(&LayerTimes::witness) +
                         med(&LayerTimes::loadmap) + med(&LayerTimes::route) +
                         med(&LayerTimes::check);
  const double exports = w.has_sinks() ? median(export_s) : 0.0;
  const double messages =
      static_cast<double>(c.scalar_sends + c.bulk_messages);
  const bool sort_layer = std::strcmp(w.host_layer(), "sort") == 0;
  const auto u64 = [](std::uint64_t x) { return static_cast<double>(x); };
  return {
      {"spatial.machine.charge_s", charge, "s"},
      {"spatial.machine.phase_s", med(&LayerTimes::phase), "s"},
      {"spatial.machine.scalar_sends", u64(c.scalar_sends), "count"},
      {"spatial.machine.bulk_batches", u64(c.bulk_batches), "count"},
      {"spatial.machine.bulk_messages", u64(c.bulk_messages), "count"},
      {"spatial.machine.bulk_share",
       messages > 0 ? u64(c.bulk_messages) / messages : 0.0, "ratio"},
      {"spatial.machine.msgs_per_batch",
       c.bulk_batches > 0 ? u64(c.bulk_messages) / u64(c.bulk_batches) : 0.0,
       "msgs/batch"},
      {"spatial.machine.phase_enters", u64(c.phase_enters), "count"},
      {"spatial.machine.op_events", u64(c.op_events), "count"},
      {"spatial.grid_array.place_s", median(setups.place_s), "s"},
      {"spatial.grid_array.births", u64(c.births), "count"},
      {"spatial.grid_array.deaths", u64(c.deaths), "count"},
      {"sort.host_s", sort_layer ? host : 0.0, "s"},
      {"collectives.host_s", sort_layer ? 0.0 : host, "s"},
      {"spatial.profile.core_s", med(&LayerTimes::core), "s"},
      {"spatial.profile.witness_s", med(&LayerTimes::witness), "s"},
      {"spatial.profile.export_s", exports, "s"},
      {"spatial.trace.loadmap_s", med(&LayerTimes::loadmap), "s"},
      {"spatial.congestion.route_s", med(&LayerTimes::route), "s"},
      {"spatial.independence.check_s", med(&LayerTimes::check), "s"},
      {"spatial.independence.conflicts", u64(max_conflicts), "count"},
      {"trace.unattributed_s", wall - (charge + host + sinks_s + exports),
       "s"},
      {"trace.overhead_x", med(&LayerTimes::traced_wall) / wall, "x"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> [--seed <n>] "
                 "[--seconds <s>] [--trace <0|1>]\n");
    return 2;
  }
  if (const char* var = engine_env_set(); var != nullptr) {
    std::fprintf(stderr,
                 "perfbench: %s is set; the benchmark measures only the "
                 "default serial charging path. Unset it.\n",
                 var);
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  Ledger ledger(args.workload, args.seed);
  (void)w->setup(args.seed);
  ledger.add(w->call(nullptr, true));  // warm-up: checked, not timed
  const std::vector<Metric> metrics =
      args.trace ? traced(*w, ledger, args) : end_to_end(*w, ledger, args);

  std::printf("workload %s, seed %llu%s, %s run\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              ledger.pinned() ? " (pinned)" : "",
              args.trace ? "traced" : "end-to-end");
  for (const Metric& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-34s %.6g (%llu failed of %llu calls)\n", "error_rate",
              static_cast<double>(ledger.failed()) /
                  static_cast<double>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()),
              static_cast<unsigned long long>(ledger.attempted()));

  std::string json = "{\"correct\": ";
  json += ledger.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted());
  json += ", \"failed\": " + std::to_string(ledger.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return ledger.correct() ? 0 : 1;
}
