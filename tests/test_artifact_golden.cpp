// Golden hashes of every exported observability artifact.
//
// Two real runs — a row-major mergesort2d (n = 1000, region at (-5, 3))
// and a Z-order scan (n = 1000, region at (-40, -70), so routes cross
// negative multiples of 64) — are observed by a Profiler with witness,
// load map, congestion and independence on, next to a standalone LoadMap
// and CongestionMap. Each exported string (JSON run report, Chrome trace,
// ASCII reports, heatmaps, counter track, sorted link table, hotspot and
// percentile summaries) is pinned by its 64-bit FNV-1a hash, so any
// change to the sinks' storage or iteration that moves a single exported
// byte fails here instead of being checked by hand.
#include "collectives/operators.hpp"
#include "collectives/scan.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/congestion.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/profile.hpp"
#include "spatial/rng.hpp"
#include "spatial/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace scm {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

using Artifacts = std::vector<std::pair<std::string, std::string>>;

/// Observes `body` with every sink on and returns each exported string,
/// labelled.
Artifacts observe(const std::function<void(Machine&)>& body) {
  Profiler::Options options;
  options.witness = true;
  options.load_map = true;
  options.congestion = true;
  options.independence = true;
  Profiler prof(options);
  LoadMap lm;
  CongestionMap cm;
  FanoutSink fan({&prof, &lm, &cm});
  Machine m;
  m.set_trace(&fan);
  body(m);
  m.set_trace(nullptr);

  Artifacts out;
  out.emplace_back("profiler.json_report", prof.json_report());
  out.emplace_back("profiler.chrome_trace_json", prof.chrome_trace_json());
  out.emplace_back("profiler.ascii_report", prof.ascii_report());
  out.emplace_back("profiler.load_map.heatmap", prof.load_map()->heatmap());
  out.emplace_back("profiler.congestion.ascii_report",
                   prof.congestion()->ascii_report());
  out.emplace_back("profiler.congestion.heatmap",
                   prof.congestion()->heatmap());
  out.emplace_back("profiler.independence.report",
                   prof.independence()->report().str());

  out.emplace_back("loadmap.heatmap", lm.heatmap());
  out.emplace_back("loadmap.heatmap8", lm.heatmap(8));
  {
    std::ostringstream os;
    os << lm.messages() << ' ' << lm.total_load() << ' ' << lm.max_load()
       << ' ' << lm.imbalance() << ' ' << lm.percentile(50.0) << ' '
       << lm.percentile(95.0) << ' ' << lm.percentile(99.0) << '\n';
    for (const auto& [at, load] : lm.hotspots(16)) {
      os << at << ' ' << load << '\n';
    }
    out.emplace_back("loadmap.summary", os.str());
  }

  out.emplace_back("congestion.ascii_report", cm.ascii_report(16));
  out.emplace_back("congestion.heatmap", cm.heatmap());
  out.emplace_back("congestion.heatmap8", cm.heatmap(8));
  out.emplace_back("congestion.chrome_counter_json",
                   cm.chrome_counter_json());
  {
    std::ostringstream os;
    os << cm.messages() << ' ' << cm.links() << ' ' << cm.total_occupancy()
       << ' ' << cm.max_link_load() << ' ' << cm.congested_clock() << ' '
       << cm.percentile(50.0) << ' ' << cm.percentile(95.0) << ' '
       << cm.percentile(99.0) << '\n';
    for (const auto& [link, count] : cm.sorted_links()) {
      os << link.str() << ' ' << count << '\n';
    }
    for (const auto& pc : cm.phase_congestion()) {
      os << PhaseRegistry::instance().name(pc.phase) << ' ' << pc.occupancy
         << ' ' << pc.links << ' ' << pc.peak << '\n';
    }
    out.emplace_back("congestion.links", os.str());
  }
  return out;
}

void expect_golden(
    const Artifacts& artifacts,
    const std::vector<std::pair<std::string, std::uint64_t>>& golden) {
  ASSERT_EQ(artifacts.size(), golden.size());
  for (std::size_t i = 0; i < artifacts.size(); ++i) {
    ASSERT_EQ(artifacts[i].first, golden[i].first);
    EXPECT_EQ(fnv1a(artifacts[i].second), golden[i].second)
        << artifacts[i].first << " (" << artifacts[i].second.size()
        << " bytes) hashes to 0x" << std::hex << fnv1a(artifacts[i].second);
  }
}

TEST(ArtifactGolden, Mergesort2dAtNegativeRowOrigin) {
  const auto v = random_doubles(20251017, 1000);
  const Artifacts artifacts = observe([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({-5, 3}, v,
                                                   Layout::kRowMajor);
    a.announce(m);
    (void)mergesort2d(m, a);
  });
  expect_golden(artifacts, {
      {"profiler.json_report", 0xd19affd8c7807d7bULL},
      {"profiler.chrome_trace_json", 0x934070cb163e821ULL},
      {"profiler.ascii_report", 0xaa4a9f281483f3bcULL},
      {"profiler.load_map.heatmap", 0x3b8288ba2b55e32fULL},
      {"profiler.congestion.ascii_report", 0xf380643cb86c5591ULL},
      {"profiler.congestion.heatmap", 0x2f5ffaa9857b3a24ULL},
      {"profiler.independence.report", 0x54ebdc4f6e00078aULL},
      {"loadmap.heatmap", 0x3b8288ba2b55e32fULL},
      {"loadmap.heatmap8", 0xb2124648b36cc42cULL},
      {"loadmap.summary", 0x36c97ef970751bcdULL},
      {"congestion.ascii_report", 0xff3121ea359942f5ULL},
      {"congestion.heatmap", 0x2f5ffaa9857b3a24ULL},
      {"congestion.heatmap8", 0x382a6a6d5fc6ed32ULL},
      {"congestion.chrome_counter_json", 0x18b3e1a49fe30071ULL},
      {"congestion.links", 0x9a23a1eee68a0795ULL},
  });
}

TEST(ArtifactGolden, ZOrderScanAtNegativeOrigin) {
  const auto v = random_ints(7, 1000, -1000, 1000);
  const Artifacts artifacts = observe([&](Machine& m) {
    auto a = GridArray<std::int64_t>::from_values_square({-40, -70}, v,
                                                         Layout::kZOrder);
    a.announce(m);
    (void)scan(m, a, Plus{});
  });
  expect_golden(artifacts, {
      {"profiler.json_report", 0x285044787846387dULL},
      {"profiler.chrome_trace_json", 0x508acfd5fcccf8e1ULL},
      {"profiler.ascii_report", 0x37ebd706987f3922ULL},
      {"profiler.load_map.heatmap", 0x7842be6be184aaedULL},
      {"profiler.congestion.ascii_report", 0xbe7c2924b6135052ULL},
      {"profiler.congestion.heatmap", 0x90b85b84eac2415eULL},
      {"profiler.independence.report", 0x92f2f2d70ee438efULL},
      {"loadmap.heatmap", 0x7842be6be184aaedULL},
      {"loadmap.heatmap8", 0x5090d515582396e2ULL},
      {"loadmap.summary", 0x98f7e82f0cf7901cULL},
      {"congestion.ascii_report", 0x8edd40a9a26095a8ULL},
      {"congestion.heatmap", 0x90b85b84eac2415eULL},
      {"congestion.heatmap8", 0x3b91332897e78b79ULL},
      {"congestion.chrome_counter_json", 0xe0e993cedf9a236bULL},
      {"congestion.links", 0x1ff927149935caeaULL},
  });
}

}  // namespace
}  // namespace scm
