// Tests of the benchmark's own machinery: the tail-percentile rule behind
// wall_tail_s, and chunked record-and-replay against an unchunked replay.
#include "recorder.hpp"
#include "stats.hpp"
#include "workloads.hpp"

#include "collectives/operators.hpp"
#include "collectives/scan.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/independence.hpp"
#include "spatial/machine.hpp"
#include "spatial/profile.hpp"
#include "spatial/rng.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <limits>
#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  // Reverse so tail() must sort.
  return {v.rbegin(), v.rend()};
}

TEST(Tail, NeedsMoreThanTenSamples) {
  EXPECT_FALSE(tail({}).has_value());
  EXPECT_FALSE(tail(ramp(10)).has_value());
}

TEST(Tail, KeepsTenSamplesBeyondTheValue) {
  // 11 samples: only the smallest has ten beyond it.
  const Tail t11 = *tail(ramp(11));
  EXPECT_EQ(t11.value, 1.0);
  EXPECT_EQ(t11.samples, 11u);
  // 20 samples: the 10th smallest, p50.
  const Tail t20 = *tail(ramp(20));
  EXPECT_EQ(t20.value, 10.0);
  EXPECT_DOUBLE_EQ(t20.percentile, 50.0);
  // 100 samples: p90; 1000 samples: p99.
  const Tail t100 = *tail(ramp(100));
  EXPECT_EQ(t100.value, 90.0);
  EXPECT_DOUBLE_EQ(t100.percentile, 90.0);
  const Tail t1000 = *tail(ramp(1000));
  EXPECT_EQ(t1000.value, 990.0);
  EXPECT_DOUBLE_EQ(t1000.percentile, 99.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

/// Runs `algorithm` on a fresh Machine with a recorder of chunk bound
/// `limit`, replaying every chunk into a shadow Machine and into sinks.
struct ReplayRun {
  scm::Metrics live;
  scm::Metrics shadow;
  scm::Metrics profiled;
  std::uint64_t conflicts{0};
  std::uint64_t chunks{0};
  bool chunks_within_limit{true};
};

ReplayRun record_and_replay(std::size_t limit,
                            const std::function<void(scm::Machine&)>& algo) {
  ReplayRun out;
  scm::Machine shadow;
  scm::Profiler profiler;  // embeds an IndependenceChecker
  scm::IndependenceChecker::Config config;
  config.strict = false;
  scm::IndependenceChecker checker(config);
  ChunkedRecorder recorder(limit, [&](Chunk& chunk) {
    // A chunk over the limit must be one batch that alone exceeds it.
    if (chunk.entries() > limit && chunk.events.size() != 1) {
      out.chunks_within_limit = false;
    }
    replay(shadow, chunk);
    replay(profiler, chunk);
    replay(checker, chunk);
  });
  scm::Machine m;
  m.set_trace(&recorder);
  algo(m);
  recorder.finish();
  out.live = m.metrics();
  out.shadow = shadow.metrics();
  out.profiled = profiler.totals();
  out.conflicts = checker.report().violations.size();
  out.chunks = recorder.counts().chunks;
  return out;
}

void expect_chunking_invisible(
    const std::function<void(scm::Machine&)>& algo) {
  const ReplayRun whole =
      record_and_replay(std::numeric_limits<std::size_t>::max(), algo);
  const ReplayRun chunked = record_and_replay(64, algo);
  EXPECT_EQ(whole.chunks, 1u);
  EXPECT_GT(chunked.chunks, 10u);
  EXPECT_TRUE(chunked.chunks_within_limit);
  EXPECT_EQ(whole.shadow, whole.live);
  EXPECT_EQ(chunked.shadow, chunked.live);
  EXPECT_EQ(chunked.shadow, whole.shadow);
  EXPECT_EQ(chunked.profiled, whole.profiled);
  EXPECT_EQ(chunked.profiled, chunked.live);
  EXPECT_EQ(whole.conflicts, 0u);
  EXPECT_EQ(chunked.conflicts, 0u);
}

TEST(ChunkedReplay, MergesortMatchesUnchunkedReplay) {
  const std::vector<double> values = scm::random_doubles(5, 1024);
  expect_chunking_invisible([&](scm::Machine& m) {
    const auto in = scm::GridArray<double>::from_values_square(
        {0, 0}, values, scm::Layout::kRowMajor);
    in.announce(m);
    (void)scm::mergesort2d(m, in);
  });
}

TEST(ChunkedReplay, ScanMatchesUnchunkedReplay) {
  const std::vector<std::int64_t> values =
      scm::random_ints(6, 4096, -1000, 1000);
  expect_chunking_invisible([&](scm::Machine& m) {
    const auto in = scm::GridArray<std::int64_t>::from_values_square(
        {0, 0}, values, scm::Layout::kZOrder);
    in.announce(m);
    (void)scm::scan(m, in, scm::Plus{});
  });
}

TEST(ChunkedReplay, ReplayDoesNotReachTheGlobalSink) {
  scm::Profiler global;
  ScopedGlobalTrace installed(&global);
  scm::Machine shadow;  // constructed before recording starts
  ChunkedRecorder recorder(64, [&](Chunk& chunk) { replay(shadow, chunk); });
  scm::Machine m;
  m.set_trace(&recorder);
  const std::vector<double> values = scm::random_doubles(7, 256);
  const auto in = scm::GridArray<double>::from_values_square(
      {0, 0}, values, scm::Layout::kRowMajor);
  (void)scm::mergesort2d(m, in);
  recorder.finish();
  EXPECT_EQ(shadow.metrics(), m.metrics());
  EXPECT_EQ(global.totals(), m.metrics());
}

TEST(Environment, EngineSwitchesAreDetected) {
  for (const char* var : kEngineEnv) unsetenv(var);
  EXPECT_EQ(engine_env_set(), nullptr);
  setenv("SCM_TILE", "64x64", 1);
  EXPECT_STREQ(engine_env_set(), "SCM_TILE");
  unsetenv("SCM_TILE");
}

TEST(Workloads, EveryWorkloadIsKnown) {
  for (const char* name :
       {"mergesort_2e18", "scan_2e20", "mergesort_profiled_2e14"}) {
    EXPECT_NE(make_workload(name), nullptr) << name;
  }
  EXPECT_EQ(make_workload("nope"), nullptr);
}

}  // namespace
}  // namespace perfbench
