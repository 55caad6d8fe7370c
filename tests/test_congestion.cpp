// Tests of the link-level congestion sink (spatial/congestion):
//   * a hand-built fixture whose every message is scripted, so the
//     dimension-ordered link decomposition, per-phase attribution, peaks,
//     percentiles, hotspots, and congested clock are checked against
//     values computed by hand, link by link;
//   * the link-decomposition identity on every Table-1 algorithm: the
//     summed per-link occupancy equals the machine's energy total (a
//     message of Manhattan distance d crosses exactly d links);
//   * zero-length sends, self-sends, and empty batches produce no
//     occupancy — matching the model's "free and unreported" contract;
//   * the batched on_send_bulk path yields byte-identical per-link
//     occupancy to a scalar replay of the same events;
//   * translation invariance at unit level (the fuzzer asserts it on
//     random programs; here it is pinned on a real collective);
//   * exporters: ascii report / heatmap smoke, Chrome counter track
//     parses, and the Profiler's schema-v3 JSON run report carries the
//     "congestion" section with its CI-checked invariants.
#include "spatial/congestion.hpp"

#include "collectives/baselines.hpp"
#include "collectives/scan.hpp"
#include "select/select.hpp"
#include "sort/sort.hpp"
#include "spatial/machine.hpp"
#include "spatial/profile.hpp"
#include "spatial/rng.hpp"
#include "spmv/generators.hpp"
#include "spmv/spmv.hpp"
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace scm {
namespace {

index_t link_sum(const CongestionMap& cm) {
  index_t sum = 0;
  for (const auto& [link, count] : cm.sorted_links()) sum += count;
  return sum;
}

// ---- Hand-built fixture, reproduced link by link ---------------------------

TEST(CongestionFixture, HandBuiltRunReproducedLinkByLink) {
  Machine m;
  CongestionMap cm;
  m.set_trace(&cm);

  Clock c{};
  {
    Machine::PhaseScope a(m, "cong_a");
    // (0,0)->(2,1), distance 3: rows first (down twice), then one right.
    c = m.send({0, 0}, {2, 1}, c);
    // (0,0)->(2,0), distance 2: retraces both down links of the first
    // message, driving them (and the phase's peak) to 2.
    c = m.send({0, 0}, {2, 0}, c);
    {
      Machine::PhaseScope b(m, "cong_b");
      // (2,1)->(0,1), distance 2: two up links, attributed to the
      // innermost phase only.
      c = m.send({2, 1}, {0, 1}, c);
    }
  }
  // Outside every scope: one left link in the kNoPhase bucket.
  c = m.send({0, 1}, {0, 0}, c);
  m.set_trace(nullptr);

  EXPECT_EQ(cm.messages(), 4);
  EXPECT_EQ(cm.total_occupancy(), 8);
  EXPECT_EQ(cm.total_occupancy(), m.metrics().energy);
  EXPECT_EQ(cm.links(), 6);

  // Every directed link, checked individually.
  EXPECT_EQ(cm.occupancy(Link{{0, 0}, {1, 0}}), 2);  // down
  EXPECT_EQ(cm.occupancy(Link{{1, 0}, {2, 0}}), 2);  // down
  EXPECT_EQ(cm.occupancy(Link{{2, 0}, {2, 1}}), 1);  // right
  EXPECT_EQ(cm.occupancy(Link{{2, 1}, {1, 1}}), 1);  // up
  EXPECT_EQ(cm.occupancy(Link{{1, 1}, {0, 1}}), 1);  // up
  EXPECT_EQ(cm.occupancy(Link{{0, 1}, {0, 0}}), 1);  // left
  // Links are directed: the reverse wire carried nothing.
  EXPECT_EQ(cm.occupancy(Link{{1, 0}, {0, 0}}), 0);
  // Routing is rows-first: no horizontal link ever leaves row 0 eastward.
  EXPECT_EQ(cm.occupancy(Link{{0, 0}, {0, 1}}), 0);
  // A non-unit "link" is not a link.
  EXPECT_EQ(cm.occupancy(Link{{0, 0}, {2, 0}}), 0);

  EXPECT_EQ(cm.max_link_load(), 2);
  EXPECT_EQ(link_sum(cm), 8);

  // Per-phase buckets partition the traffic (innermost attribution).
  const PhaseId id_a = PhaseRegistry::instance().intern("cong_a");
  const PhaseId id_b = PhaseRegistry::instance().intern("cong_b");
  EXPECT_EQ(cm.phase_peak(id_a), 2);
  EXPECT_EQ(cm.phase_peak(id_b), 1);
  EXPECT_EQ(cm.phase_peak(PhaseRegistry::instance().intern("cong_absent")),
            0);
  const auto phases = cm.phase_congestion();
  ASSERT_EQ(phases.size(), 3u);  // first-touch order: a, b, <top>
  EXPECT_EQ(phases[0].phase, id_a);
  EXPECT_EQ(phases[0].occupancy, 5);
  EXPECT_EQ(phases[0].links, 3);
  EXPECT_EQ(phases[0].peak, 2);
  EXPECT_EQ(phases[1].phase, id_b);
  EXPECT_EQ(phases[1].occupancy, 2);
  EXPECT_EQ(phases[1].links, 2);
  EXPECT_EQ(phases[1].peak, 1);
  EXPECT_EQ(phases[2].phase, kNoPhase);
  EXPECT_EQ(phases[2].occupancy, 1);
  EXPECT_EQ(phases[2].links, 1);
  EXPECT_EQ(phases[2].peak, 1);

  // Congested clock = sum of bucket peaks = 2 + 1 + 1; always at least
  // the global bottleneck.
  EXPECT_EQ(cm.congested_clock(), 4);
  EXPECT_GE(cm.congested_clock(), cm.max_link_load());

  // Occupancy distribution over the 6 touched links: {1,1,1,1,2,2}.
  const std::vector<index_t> expected_multiset{1, 1, 1, 1, 2, 2};
  EXPECT_EQ(cm.occupancy_multiset(), expected_multiset);
  EXPECT_EQ(cm.percentile(0.0), 1);    // nearest rank clamps to rank 1
  EXPECT_EQ(cm.percentile(50.0), 1);   // rank ceil(3) -> 1
  EXPECT_EQ(cm.percentile(90.0), 2);   // rank ceil(5.4) -> 2
  EXPECT_EQ(cm.percentile(100.0), 2);  // the maximum

  // Hotspots: the two load-2 links first, coordinate order breaking ties.
  const auto spots = cm.hotspot_links(3);
  ASSERT_EQ(spots.size(), 3u);
  EXPECT_EQ(spots[0].first, (Link{{0, 0}, {1, 0}}));
  EXPECT_EQ(spots[0].second, 2);
  EXPECT_EQ(spots[1].first, (Link{{1, 0}, {2, 0}}));
  EXPECT_EQ(spots[1].second, 2);
  EXPECT_EQ(spots[2].second, 1);
  // Asking for more hotspots than links returns them all.
  EXPECT_EQ(cm.hotspot_links(100).size(), 6u);

  // sorted_links is the canonical byte-comparable form, in Link order.
  const auto all = cm.sorted_links();
  ASSERT_EQ(all.size(), 6u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_TRUE(all[i - 1].first < all[i].first);
  }
}

// ---- Link-decomposition identity on every Table-1 algorithm ----------------

void expect_link_identity(const std::function<void(Machine&)>& algorithm) {
  Machine m;
  CongestionMap cm;
  m.set_trace(&cm);
  algorithm(m);
  m.set_trace(nullptr);
  // A run that charged nothing would make the identity vacuous.
  EXPECT_GT(cm.messages(), 0);
  EXPECT_EQ(cm.messages(), m.metrics().messages);
  // The identity: summed link occupancy == summed Manhattan distance ==
  // Metrics::energy — both through the running total and re-summed from
  // the exported per-link view.
  EXPECT_EQ(cm.total_occupancy(), m.metrics().energy);
  EXPECT_EQ(link_sum(cm), m.metrics().energy);
  EXPECT_GE(cm.congested_clock(), cm.max_link_load());
  EXPECT_GT(cm.max_link_load(), 0);
}

TEST(CongestionIdentity, Scan) {
  const auto v = random_doubles(1, 256);
  expect_link_identity([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    a.announce(m);
    (void)scan(m, a, Plus{});
  });
}

TEST(CongestionIdentity, ExclusiveScan) {
  const auto v = random_doubles(2, 255);  // non-power-of-4 fill
  expect_link_identity([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    (void)exclusive_scan(m, a, Plus{}, 0.0);
  });
}

TEST(CongestionIdentity, Mergesort2d) {
  const auto v = random_doubles(3, 256);
  expect_link_identity([&](Machine& m) {
    auto a =
        GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
    (void)mergesort2d(m, a);
  });
}

TEST(CongestionIdentity, BitonicSort) {
  const auto v = random_doubles(4, 256);
  expect_link_identity([&](Machine& m) {
    auto a =
        GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
    bitonic_sort(m, a, std::less<double>{});
  });
}

TEST(CongestionIdentity, SelectRank) {
  const auto v = random_doubles(5, 256);
  expect_link_identity([&](Machine& m) {
    auto a =
        GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
    (void)select_rank(m, a, 128, 9);
  });
}

TEST(CongestionIdentity, Spmv) {
  const CooMatrix mat = random_uniform_matrix(64, 128, 2);
  const auto x = random_doubles(6, 64);
  expect_link_identity([&](Machine& m) { (void)spmv(m, mat, x); });
}

TEST(CongestionIdentity, BinomialBaselines) {
  expect_link_identity([](Machine& m) {
    const Rect rect = square_at({0, 0}, 8);
    auto bc = binomial_broadcast(m, rect, Cell<double>{1.0, Clock{}});
    (void)binomial_reduce(m, bc, Plus{});
  });
}

TEST(CongestionIdentity, AnnounceRetire) {
  const auto v = random_doubles(8, 100);
  expect_link_identity([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    a.announce(m);
    auto b = route_permutation(m, a, a.region(), Layout::kRowMajor);
    a.retire(m);
    b.retire(m);
  });
}

// ---- Zero-length sends, self-sends, empty batches --------------------------

TEST(CongestionEdge, FreeEventsProduceNoOccupancy) {
  Machine m;
  CongestionMap cm;
  m.set_trace(&cm);
  (void)m.send({1, 1}, {1, 1}, Clock{});  // self-send: free, unreported
  m.send_bulk({});                        // empty batch
  std::vector<MessageEvent> zeros(3);
  for (index_t i = 0; i < 3; ++i) {
    zeros[static_cast<size_t>(i)] =
        MessageEvent{{i, i}, {i, i}, 0, Clock{2, 5}, Clock{}};
  }
  m.send_bulk(zeros);  // all-zero-length batch: free, unreported
  m.set_trace(nullptr);

  EXPECT_EQ(cm.messages(), 0);
  EXPECT_EQ(cm.total_occupancy(), 0);
  EXPECT_EQ(cm.links(), 0);
  EXPECT_EQ(cm.max_link_load(), 0);
  EXPECT_EQ(cm.congested_clock(), 0);
  EXPECT_EQ(cm.percentile(99.0), 0);
  EXPECT_TRUE(cm.hotspot_links(5).empty());
  EXPECT_TRUE(cm.sorted_links().empty());
  EXPECT_EQ(cm.heatmap(), "(no traffic)\n");
}

TEST(CongestionEdge, BulkHookSkipsZeroLengthEntriesItself) {
  // Machine never forwards an all-zero batch, but the sink's own bulk
  // hook must also skip zero-length entries mixed into a real batch.
  CongestionMap cm;
  std::vector<MessageEvent> batch(3);
  batch[0] = MessageEvent{{0, 0}, {0, 0}, 0, Clock{}, Clock{}};
  batch[1] = MessageEvent{{0, 0}, {0, 2}, 2, Clock{}, Clock{}};
  batch[2] = MessageEvent{{5, 5}, {5, 5}, 0, Clock{}, Clock{}};
  cm.on_send_bulk(batch);
  cm.on_send_bulk({});
  EXPECT_EQ(cm.messages(), 1);
  EXPECT_EQ(cm.total_occupancy(), 2);
  EXPECT_EQ(cm.occupancy(Link{{0, 0}, {0, 1}}), 1);
  EXPECT_EQ(cm.occupancy(Link{{0, 1}, {0, 2}}), 1);
}

// ---- Bulk path vs scalar replay: byte-identical occupancy ------------------

TEST(CongestionBulk, BatchedHookMatchesScalarReplayByteForByte) {
  std::vector<MessageEvent> batch;
  // A mix of directions, overlapping routes, and zero-length entries.
  const std::vector<std::pair<Coord, Coord>> endpoints = {
      {{0, 0}, {3, 2}}, {{3, 2}, {0, 0}}, {{1, 1}, {1, 1}},
      {{2, 0}, {0, 3}}, {{0, 3}, {2, 0}}, {{0, 0}, {3, 2}},
  };
  for (const auto& [from, to] : endpoints) {
    batch.push_back(
        MessageEvent{from, to, manhattan(from, to), Clock{}, Clock{}});
  }

  CongestionMap bulk;
  bulk.on_send_bulk(batch);

  CongestionMap scalar;
  for (const MessageEvent& e : batch) {
    if (e.distance == 0) continue;
    scalar.on_message(e.from, e.to, e.distance);
  }

  EXPECT_EQ(bulk.messages(), scalar.messages());
  EXPECT_EQ(bulk.total_occupancy(), scalar.total_occupancy());
  EXPECT_EQ(bulk.max_link_load(), scalar.max_link_load());
  EXPECT_EQ(bulk.congested_clock(), scalar.congested_clock());
  EXPECT_EQ(bulk.sorted_links(), scalar.sorted_links());
  EXPECT_EQ(bulk.occupancy_multiset(), scalar.occupancy_multiset());
}

// ---- Translation invariance (pinned on a real collective) ------------------

TEST(CongestionMetamorphic, TranslationPreservesMultisetAndPeaks) {
  const auto v = random_doubles(11, 64);
  const auto run = [&](Coord origin) {
    Machine m;
    CongestionMap cm;
    m.set_trace(&cm);
    auto a = GridArray<double>::from_values_square(origin, v);
    a.announce(m);
    (void)scan(m, a, Plus{});
    m.set_trace(nullptr);
    return std::tuple{cm.occupancy_multiset(), cm.max_link_load(),
                      cm.congested_clock()};
  };
  const auto at_origin = run({0, 0});
  const auto shifted = run({7, 5});
  EXPECT_EQ(std::get<0>(at_origin), std::get<0>(shifted));
  EXPECT_EQ(std::get<1>(at_origin), std::get<1>(shifted));
  EXPECT_EQ(std::get<2>(at_origin), std::get<2>(shifted));
}

// ---- clear() / Machine::reset semantics ------------------------------------

TEST(CongestionReset, ClearDropsDataButOpenScopesKeepAttributing) {
  Machine m;
  CongestionMap cm;
  m.set_trace(&cm);
  {
    Machine::PhaseScope a(m, "cong_survivor");
    (void)m.send({0, 0}, {0, 1}, Clock{});
    m.reset();  // forwards on_reset: recorded data dropped
    EXPECT_EQ(cm.messages(), 0);
    EXPECT_EQ(cm.total_occupancy(), 0);
    EXPECT_EQ(cm.congested_clock(), 0);
    // The mirrored phase stack survived: traffic after the reset still
    // lands in the still-open scope.
    (void)m.send({3, 3}, {4, 3}, Clock{});
  }
  m.set_trace(nullptr);
  const PhaseId id = PhaseRegistry::instance().intern("cong_survivor");
  EXPECT_EQ(cm.phase_peak(id), 1);
  ASSERT_EQ(cm.phase_congestion().size(), 1u);
  EXPECT_EQ(cm.phase_congestion()[0].phase, id);
  EXPECT_EQ(cm.occupancy(Link{{3, 3}, {4, 3}}), 1);
}

// ---- Exporters -------------------------------------------------------------

TEST(CongestionExport, AsciiReportAndHeatmapSummarizeTheRun) {
  Machine m;
  CongestionMap cm;
  m.set_trace(&cm);
  {
    Machine::PhaseScope a(m, "cong_ascii");
    (void)m.send({0, 0}, {0, 3}, Clock{});
    (void)m.send({0, 0}, {0, 3}, Clock{});
  }
  m.set_trace(nullptr);

  const std::string report = cm.ascii_report();
  EXPECT_NE(report.find("messages 2"), std::string::npos) << report;
  EXPECT_NE(report.find("occupancy 6"), std::string::npos) << report;
  EXPECT_NE(report.find("max link load 2"), std::string::npos) << report;
  EXPECT_NE(report.find("congested clock 2"), std::string::npos) << report;
  EXPECT_NE(report.find("cong_ascii"), std::string::npos) << report;
  EXPECT_NE(report.find("[0,0]->[0,1]"), std::string::npos) << report;

  const std::string map = cm.heatmap();
  EXPECT_NE(map.find("peak 2"), std::string::npos) << map;
  EXPECT_NE(map.find('@'), std::string::npos) << map;  // the peak cell
}

TEST(CongestionExport, ChromeCounterTrackParsesAndEndsAtFinalValues) {
  Machine m;
  CongestionMap cm;
  m.set_trace(&cm);
  {
    Machine::PhaseScope a(m, "cong_track_a");
    (void)m.send({0, 0}, {0, 2}, Clock{});
  }
  {
    Machine::PhaseScope b(m, "cong_track_b");
    (void)m.send({0, 0}, {0, 2}, Clock{});
  }
  m.set_trace(nullptr);

  // Phase transitions recorded samples, deduplicated when nothing moved.
  EXPECT_FALSE(cm.samples().empty());
  for (std::size_t i = 1; i < cm.samples().size(); ++i) {
    const auto& prev = cm.samples()[i - 1];
    const auto& cur = cm.samples()[i];
    EXPECT_TRUE(cur.max_link_load != prev.max_link_load ||
                cur.congested_clock != prev.congested_clock);
  }

  const auto doc = util::json::parse(cm.chrome_counter_json());
  ASSERT_TRUE(doc.has_value()) << "counter track is not valid JSON";
  const util::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  int counters = 0;
  const util::json::Value* last_args = nullptr;
  for (const util::json::Value& e : events->array) {
    const util::json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    if (ph->string != "C") continue;
    ++counters;
    EXPECT_EQ(e.find("name")->string, "link congestion");
    last_args = e.find("args");
  }
  EXPECT_GT(counters, 0);
  ASSERT_NE(last_args, nullptr);
  // The closing sample pins the track at the final totals.
  EXPECT_EQ(static_cast<index_t>(last_args->find("max_link_load")->number),
            cm.max_link_load());
  EXPECT_EQ(static_cast<index_t>(last_args->find("congested_clock")->number),
            cm.congested_clock());
}

TEST(CongestionExport, ProfilerReportCarriesSchemaV3CongestionSection) {
  Machine m;
  Profiler p(Profiler::Options{.congestion = true});
  m.set_trace(&p);
  const auto v = random_doubles(12, 64);
  auto a = GridArray<double>::from_values_square({0, 0}, v);
  (void)scan(m, a, Plus{});
  m.set_trace(nullptr);

  ASSERT_NE(p.congestion(), nullptr);
  EXPECT_EQ(p.congestion()->total_occupancy(), p.totals().energy);

  const auto doc = util::json::parse(p.json_report());
  ASSERT_TRUE(doc.has_value()) << "report is not valid JSON";
  EXPECT_EQ(static_cast<int>(doc->find("schema_version")->number),
            Profiler::kSchemaVersion);
  EXPECT_GE(Profiler::kSchemaVersion, 3);

  const util::json::Value* cong = doc->find("congestion");
  ASSERT_NE(cong, nullptr);
  EXPECT_TRUE(cong->find("enabled")->boolean);
  // The invariants CI asserts from shipped artifacts, via the report.
  EXPECT_EQ(static_cast<index_t>(cong->find("total_occupancy")->number),
            m.metrics().energy);
  EXPECT_GE(cong->find("congested_clock")->number,
            cong->find("max_link_load")->number);
  EXPECT_EQ(static_cast<index_t>(cong->find("messages")->number),
            m.metrics().messages);
  ASSERT_NE(cong->find("hotspots"), nullptr);
  EXPECT_FALSE(cong->find("hotspots")->array.empty());
  ASSERT_NE(cong->find("phases"), nullptr);
  EXPECT_FALSE(cong->find("phases")->array.empty());

  // The embedded sink also rides the Chrome phase trace as a counter
  // track on the shared tick axis.
  const auto trace = util::json::parse(p.chrome_trace_json());
  ASSERT_TRUE(trace.has_value());
  int counters = 0;
  for (const util::json::Value& e : trace->find("traceEvents")->array) {
    if (e.find("ph")->string == "C") ++counters;
  }
  EXPECT_GT(counters, 0);
}

TEST(CongestionExport, DisabledSinkReportsEnabledFalse) {
  Machine m;
  Profiler p;  // default options: no congestion map
  m.set_trace(&p);
  (void)m.send({0, 0}, {0, 1}, Clock{});
  m.set_trace(nullptr);
  EXPECT_EQ(p.congestion(), nullptr);
  const auto doc = util::json::parse(p.json_report());
  ASSERT_TRUE(doc.has_value());
  const util::json::Value* cong = doc->find("congestion");
  ASSERT_NE(cong, nullptr);
  EXPECT_FALSE(cong->find("enabled")->boolean);
}

// ---- Reference model: a plain std::map over random traffic ------------------

/// The congestion sink re-derived hop by hop into ordered maps: the
/// specification the tiled tables must reproduce exactly.
struct RefCongestion {
  std::map<Link, index_t> load;
  std::map<PhaseId, std::map<Link, index_t>> buckets;
  std::map<PhaseId, index_t> occupancy;
  std::vector<PhaseId> order;  // first-touch order of buckets
  std::vector<PhaseId> stack;
  index_t messages{0};

  void route(Coord from, Coord to) {
    ++messages;
    Coord cur = from;
    while (cur.row != to.row) {
      Coord next = cur;
      next.row += to.row > cur.row ? 1 : -1;
      hop(Link{cur, next});
      cur = next;
    }
    while (cur.col != to.col) {
      Coord next = cur;
      next.col += to.col > cur.col ? 1 : -1;
      hop(Link{cur, next});
      cur = next;
    }
  }

  void hop(Link link) {
    ++load[link];
    const PhaseId b = stack.empty() ? kNoPhase : stack.back();
    if (!buckets.contains(b)) order.push_back(b);
    ++buckets[b][link];
    ++occupancy[b];
  }
};

index_t ref_peak(const std::map<Link, index_t>& table) {
  index_t peak = 0;
  for (const auto& [link, count] : table) peak = std::max(peak, count);
  return peak;
}

void expect_matches_reference(const CongestionMap& cm,
                              const RefCongestion& ref) {
  const std::vector<std::pair<Link, index_t>> want(ref.load.begin(),
                                                   ref.load.end());
  EXPECT_EQ(cm.sorted_links(), want);
  EXPECT_EQ(cm.links(), static_cast<index_t>(want.size()));
  EXPECT_EQ(cm.messages(), ref.messages);
  index_t total = 0;
  for (const auto& [link, count] : want) {
    total += count;
    if (cm.occupancy(link) != count) {
      ADD_FAILURE() << link.str() << ": " << cm.occupancy(link)
                    << " != " << count;
      break;
    }
  }
  EXPECT_EQ(cm.total_occupancy(), total);
  EXPECT_EQ(cm.max_link_load(), ref_peak(ref.load));

  std::vector<index_t> values;
  for (const auto& [link, count] : want) values.push_back(count);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(cm.occupancy_multiset(), values);
  for (const double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(p / 100.0 * static_cast<double>(values.size()))));
    EXPECT_EQ(cm.percentile(p), values.empty() ? 0 : values[rank - 1])
        << "p" << p;
  }

  std::vector<std::pair<Link, index_t>> hot = want;
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  hot.resize(std::min<std::size_t>(hot.size(), 7));
  EXPECT_EQ(cm.hotspot_links(7), hot);

  const auto phases = cm.phase_congestion();
  ASSERT_EQ(phases.size(), ref.order.size());
  index_t clock = 0;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const PhaseId id = ref.order[i];
    const auto& table = ref.buckets.at(id);
    EXPECT_EQ(phases[i].phase, id);
    EXPECT_EQ(phases[i].links, static_cast<index_t>(table.size()));
    EXPECT_EQ(phases[i].peak, ref_peak(table));
    EXPECT_EQ(phases[i].occupancy, ref.occupancy.at(id));
    EXPECT_EQ(cm.phase_peak(id), ref_peak(table));
    clock += ref_peak(table);
  }
  EXPECT_EQ(cm.congested_clock(), clock);
}

/// Drives `cm` and `ref` with the same seeded stream of scalar messages,
/// bulk batches (with zero-length members) and phase transitions, over
/// rows and columns in [-130, 130] so routes cross positive and negative
/// multiples of the 64-cell tile side.
void drive_random(std::uint64_t seed, int events, CongestionMap& cm,
                  RefCongestion& ref) {
  std::mt19937_64 rng = make_rng(seed);
  std::uniform_int_distribution<index_t> coord(-130, 130);
  std::uniform_int_distribution<int> pick(0, 9);
  const PhaseId names[] = {PhaseRegistry::instance().intern("ref_cong_a"),
                           PhaseRegistry::instance().intern("ref_cong_b"),
                           PhaseRegistry::instance().intern("ref_cong_c")};
  const auto random_coord = [&] { return Coord{coord(rng), coord(rng)}; };
  for (int i = 0; i < events; ++i) {
    const int kind = pick(rng);
    if (kind == 0) {
      const PhaseId id = names[pick(rng) % 3];
      cm.on_phase_enter(id);
      ref.stack.push_back(id);
    } else if (kind == 1 && !ref.stack.empty()) {
      cm.on_phase_exit(ref.stack.back());
      ref.stack.pop_back();
    } else if (kind < 6) {
      const Coord from = random_coord();
      const Coord to = random_coord();
      if (from == to) continue;
      cm.on_message(from, to, manhattan(from, to));
      ref.route(from, to);
    } else {
      std::vector<MessageEvent> batch;
      const int size = 1 + pick(rng) % 6;
      for (int j = 0; j < size; ++j) {
        MessageEvent e;
        e.from = random_coord();
        e.to = pick(rng) == 0 ? e.from : random_coord();
        e.distance = manhattan(e.from, e.to);
        batch.push_back(e);
        if (e.distance != 0) ref.route(e.from, e.to);
      }
      cm.on_send_bulk(batch);
    }
  }
}

TEST(CongestionReference, RandomTrafficAcrossNegativeTilesMatchesMapModel) {
  CongestionMap cm;
  RefCongestion ref;
  drive_random(41, 600, cm, ref);
  expect_matches_reference(cm, ref);
}

TEST(CongestionReference, ClearAndResetThenReuseMatchFreshModel) {
  // Each pass ends and the next begins with the same single-tile
  // message, so a cached tile surviving clear()/on_reset() would swallow
  // the first hops of the reuse.
  const auto closing = [](CongestionMap& cm) {
    cm.on_message({5, 5}, {5, 9}, 4);
  };
  CongestionMap cm;
  for (int pass = 0; pass < 3; ++pass) {
    RefCongestion ref;
    closing(cm);
    ref.route({5, 5}, {5, 9});
    drive_random(100 + static_cast<std::uint64_t>(pass), 200, cm, ref);
    closing(cm);
    ref.route({5, 5}, {5, 9});
    expect_matches_reference(cm, ref);
    // Close the scopes the stream left open so every pass starts at top.
    while (!ref.stack.empty()) {
      cm.on_phase_exit(ref.stack.back());
      ref.stack.pop_back();
    }
    if (pass % 2 == 0) {
      cm.clear();
    } else {
      cm.on_reset();
    }
    expect_matches_reference(cm, RefCongestion{});
  }
}

TEST(CongestionReference, UntouchedTilesAndNonUnitLinksReadZero) {
  CongestionMap cm;
  cm.on_message({-70, 3}, {-70, 9}, 6);
  EXPECT_EQ(cm.occupancy(Link{{-70, 3}, {-70, 4}}), 1);
  // Same tile, untouched link; never-touched tiles, far and negative.
  EXPECT_EQ(cm.occupancy(Link{{-70, 4}, {-70, 3}}), 0);
  EXPECT_EQ(cm.occupancy(Link{{1000, 1000}, {1000, 1001}}), 0);
  EXPECT_EQ(cm.occupancy(Link{{-1000, -5000}, {-1001, -5000}}), 0);
  // Not a unit link.
  EXPECT_EQ(cm.occupancy(Link{{-70, 3}, {-70, 5}}), 0);
  EXPECT_EQ(CongestionMap{}.occupancy(Link{{0, 0}, {0, 1}}), 0);
}

}  // namespace
}  // namespace scm
