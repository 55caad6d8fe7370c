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
//
// The artifacts only see what the sinks keep (the witness, for one, keeps
// first-achiever events), so a reorder of other sends can slip past them.
// The event-stream pins below close that gap: a hashing sink folds every
// TraceSink hook, in arrival order, for mergesort2d and allpairs_sort
// runs, so host-side rewrites of the sort layer must replay the exact
// Machine call sequence.
#include "collectives/operators.hpp"
#include "collectives/scan.hpp"
#include "sort/allpairs.hpp"
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
#include <span>
#include <sstream>
#include <string>
#include <string_view>
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

/// Folds every TraceSink hook into one 64-bit FNV-1a hash in arrival
/// order: each event contributes a tag byte and all of its fields (bulk
/// batches every entry, zero-length ones included; phases by name, since
/// interned ids depend on registration order).
class EventStreamHash final : public TraceSink {
 public:
  void on_message(Coord from, Coord to, index_t distance) override {
    tag('m');
    mix(from);
    mix(to);
    word(distance);
  }
  void on_send(const MessageEvent& e) override {
    tag('s');
    mix(e);
  }
  void on_send_bulk(std::span<const MessageEvent> batch) override {
    tag('S');
    word(static_cast<index_t>(batch.size()));
    for (const MessageEvent& e : batch) mix(e);
  }
  void on_op(index_t n) override {
    tag('o');
    word(n);
  }
  void on_birth(Coord at, Clock c) override {
    tag('b');
    mix(at);
    mix(c);
  }
  void on_death(Coord at) override {
    tag('d');
    mix(at);
  }
  void on_birth_bulk(std::span<const BirthEvent> batch) override {
    tag('B');
    word(static_cast<index_t>(batch.size()));
    for (const BirthEvent& b : batch) {
      mix(b.at);
      mix(b.clock);
    }
  }
  void on_death_bulk(std::span<const Coord> batch) override {
    tag('D');
    word(static_cast<index_t>(batch.size()));
    for (const Coord c : batch) mix(c);
  }
  void on_phase_enter(PhaseId id) override {
    tag('(');
    mix(PhaseRegistry::instance().name(id));
  }
  void on_phase_exit(PhaseId id) override {
    tag(')');
    mix(PhaseRegistry::instance().name(id));
  }
  void on_reset() override { tag('r'); }

  [[nodiscard]] std::uint64_t hash() const { return h_; }

 private:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  void tag(char t) { byte(static_cast<unsigned char>(t)); }
  void word(index_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int k = 0; k < 8; ++k) byte(static_cast<unsigned char>(u >> (8 * k)));
  }
  void mix(Coord c) {
    word(c.row);
    word(c.col);
  }
  void mix(Clock c) {
    word(c.depth);
    word(c.distance);
  }
  void mix(const MessageEvent& e) {
    mix(e.from);
    mix(e.to);
    word(e.distance);
    mix(e.payload);
    mix(e.arrival);
  }
  void mix(std::string_view s) {
    word(static_cast<index_t>(s.size()));
    for (const char ch : s) tag(ch);
  }

  std::uint64_t h_{0xcbf29ce484222325ULL};
};

/// Runs `body` on a fresh machine observed by an EventStreamHash.
std::uint64_t stream_hash(const std::function<void(Machine&)>& body) {
  EventStreamHash sink;
  Machine m;
  m.set_trace(&sink);
  body(m);
  m.set_trace(nullptr);
  return sink.hash();
}

TEST(EventStreamGolden, Mergesort2dRowMajorAcrossBaseSizes) {
  struct Pin {
    index_t n;
    index_t base_size;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {5, 2, 0x9d3c854f9a62bb62ULL},
      {5, 8, 0x98d5790884df7e0aULL},
      {5, 32, 0x98d5790884df7e0aULL},
      {37, 2, 0x593cacbfd9e459c2ULL},
      {37, 8, 0x44460445d6089f8fULL},
      {37, 32, 0xed31c070c5676723ULL},
      {100, 2, 0xa22520a87fe8a46bULL},
      {100, 8, 0x87e256c5b251b1aaULL},
      {100, 32, 0x8e64d9aa8d7617c5ULL},
      {1000, 2, 0xb33abc89d5d19379ULL},
      {1000, 8, 0x35bc15f94325bd61ULL},
      {1000, 32, 0x8a3e4f9115f0add4ULL},
      {4096, 2, 0x7e71245b02266a88ULL},
      {4096, 8, 0x036c973ff9fab49aULL},
      {4096, 32, 0xeee1005a144c3dc1ULL},
      {5000, 2, 0x24b0d34ab6498307ULL},
      {5000, 8, 0x4977541fd777033fULL},
      {5000, 32, 0xfd4c8a14584e0cabULL},
  };
  for (const Pin& pin : pins) {
    const auto v = random_doubles(static_cast<std::uint64_t>(pin.n),
                                  static_cast<std::size_t>(pin.n));
    const std::uint64_t h = stream_hash([&](Machine& m) {
      auto a = GridArray<double>::from_values_square({-3, 5}, v,
                                                     Layout::kRowMajor);
      a.announce(m);
      (void)mergesort2d(m, a, std::less<double>{}, MergeConfig{pin.base_size});
    });
    EXPECT_EQ(h, pin.hash) << "n=" << pin.n << " base_size=" << pin.base_size
                           << " hashes to 0x" << std::hex << h;
  }
}

TEST(EventStreamGolden, AllPairsSortRoutedAndInPlace) {
  // kRowMajor is routed into Z-order on the base square; kZOrder already
  // sits there at offset 0; kZOrderOffset sits on the base square in
  // Z-order but at a non-zero offset, so it must still be routed.
  enum class Input { kRowMajor, kZOrder, kZOrderOffset };
  struct Pin {
    index_t n;
    Input input;
    std::uint64_t hash;
  };
  const Pin pins[] = {
      {2, Input::kRowMajor, 0x9081727546a2672eULL},
      {2, Input::kZOrder, 0x9081727546a2672eULL},
      {2, Input::kZOrderOffset, 0x09b09772e844c157ULL},
      {3, Input::kRowMajor, 0x8b547bd58707e841ULL},
      {3, Input::kZOrder, 0x8b547bd58707e841ULL},
      {3, Input::kZOrderOffset, 0x3e5b52a2f4963d4cULL},
      {17, Input::kRowMajor, 0x69d1ac7e87f5be99ULL},
      {17, Input::kZOrder, 0x6bd4806235da6be8ULL},
      {17, Input::kZOrderOffset, 0x1bc53b8a8832b1fdULL},
      {60, Input::kRowMajor, 0x27f9dca3589e8895ULL},
      {60, Input::kZOrder, 0xf9d0c6b50a8ea448ULL},
      {60, Input::kZOrderOffset, 0x9d273cdd2f88173fULL},
      {256, Input::kRowMajor, 0x4e63187f77e722b9ULL},
      {256, Input::kZOrder, 0x398a32a6edd551c2ULL},
  };
  const Coord origin{-3, 5};
  for (const Pin& pin : pins) {
    const auto v = random_doubles(static_cast<std::uint64_t>(pin.n) + 100,
                                  static_cast<std::size_t>(pin.n));
    const std::uint64_t h = stream_hash([&](Machine& m) {
      const Rect base = square_at(origin, square_side_for(pin.n));
      GridArray<double> a =
          pin.input == Input::kRowMajor
              ? GridArray<double>::from_values_square(origin, v,
                                                      Layout::kRowMajor)
          : pin.input == Input::kZOrder
              ? GridArray<double>::from_values_square(origin, v)
              : GridArray<double>(base, Layout::kZOrder, pin.n,
                                  base.size() - pin.n);
      for (index_t i = 0; i < pin.n; ++i) {
        a[i].value = v[static_cast<std::size_t>(i)];
      }
      a.announce(m);
      (void)allpairs_sort(m, a, std::less<double>{});
    });
    EXPECT_EQ(h, pin.hash) << "n=" << pin.n << " input="
                           << static_cast<int>(pin.input) << " hashes to 0x"
                           << std::hex << h;
  }
}

}  // namespace
}  // namespace scm
