// The bulk-charging engine's metrics-identity contract (spatial/bulk_ab):
//   * every Table-1 algorithm produces byte-identical Metrics totals and
//     per-phase records through the scalar and bulk charging paths, with a
//     conformance checker attached and clean;
//   * the A/B harness itself catches deliberately divergent fake bulk
//     paths (wrong totals, wrong phase attribution across a phase
//     boundary) — a harness that cannot fail proves nothing;
//   * Machine::send_bulk edge cases: empty batch, all-zero-length batch
//     (free, unreported), call-time phase-set attribution, arrival-clock
//     filling;
//   * GridArray announce/retire (birth_bulk/death_bulk) replay identically.
#include "spatial/bulk_ab.hpp"

#include "collectives/baselines.hpp"
#include "collectives/scan.hpp"
#include "select/select.hpp"
#include "sort/sort.hpp"
#include "spatial/rng.hpp"
#include "spmv/generators.hpp"
#include "spmv/spmv.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace scm {
namespace {

// ---- Table-1 algorithm equivalence ----------------------------------------

void expect_ab_ok(const std::function<void(Machine&)>& algorithm) {
  const AbResult r = run_ab(algorithm);
  EXPECT_TRUE(r.ok()) << r.diff();
  // A run that charged nothing would make the comparison vacuous.
  EXPECT_GT(r.bulk.totals.messages, 0);
  EXPECT_EQ(r.scalar.totals, r.bulk.totals);
  EXPECT_EQ(r.scalar.phases, r.bulk.phases);
  // Per-link occupancy (batched vs replayed congestion sink) must also be
  // byte-identical, and a real algorithm touches at least one link.
  EXPECT_TRUE(r.links_equal);
  EXPECT_EQ(r.scalar.links, r.bulk.links);
  EXPECT_GT(r.bulk.links.size(), 0u);
  EXPECT_EQ(r.scalar.congested_clock, r.bulk.congested_clock);
}

TEST(BulkEquivalence, Scan) {
  const auto v = random_doubles(1, 256);
  expect_ab_ok([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    a.announce(m);
    (void)scan(m, a, Plus{});
  });
}

TEST(BulkEquivalence, ExclusiveScan) {
  const auto v = random_doubles(2, 255);  // non-power-of-4 fill
  expect_ab_ok([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    (void)exclusive_scan(m, a, Plus{}, 0.0);
  });
}

TEST(BulkEquivalence, Mergesort2d) {
  const auto v = random_doubles(3, 256);
  expect_ab_ok([&](Machine& m) {
    auto a =
        GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
    (void)mergesort2d(m, a);
  });
}

TEST(BulkEquivalence, BitonicSort) {
  const auto v = random_doubles(4, 256);
  expect_ab_ok([&](Machine& m) {
    auto a =
        GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
    bitonic_sort(m, a, std::less<double>{});
  });
}

TEST(BulkEquivalence, SelectRank) {
  const auto v = random_doubles(5, 256);
  expect_ab_ok([&](Machine& m) {
    auto a =
        GridArray<double>::from_values_square({0, 0}, v, Layout::kRowMajor);
    (void)select_rank(m, a, 128, 9);
  });
}

TEST(BulkEquivalence, Spmv) {
  const CooMatrix mat = random_uniform_matrix(64, 128, 2);
  const auto x = random_doubles(6, 64);
  expect_ab_ok([&](Machine& m) { (void)spmv(m, mat, x); });
}

TEST(BulkEquivalence, BinomialBaselines) {
  expect_ab_ok([](Machine& m) {
    const Rect rect = square_at({0, 0}, 8);
    auto bc = binomial_broadcast(m, rect, Cell<double>{1.0, Clock{}});
    (void)binomial_reduce(m, bc, Plus{});
  });
}

TEST(BulkEquivalence, AnnounceRetire) {
  const auto v = random_doubles(8, 100);
  expect_ab_ok([&](Machine& m) {
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    a.announce(m);
    auto b = route_permutation(m, a, a.region(), Layout::kRowMajor);
    a.retire(m);
    b.retire(m);
  });
}

// ---- The harness catches divergent fakes ----------------------------------

TEST(BulkAbHarness, CatchesDivergentTotals) {
  // A fake "bulk path" that charges one extra message when bulk charging
  // is on must be flagged, not silently averaged away.
  const AbResult r = run_ab([](Machine& m) {
    Clock c = m.send({0, 0}, {0, 1}, Clock{});
    if (Machine::bulk_charging()) c = m.send({0, 1}, {0, 2}, c);
  });
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.totals_equal);
  EXPECT_NE(r.diff().find("totals"), std::string::npos) << r.diff();
}

TEST(BulkAbHarness, CatchesPhaseBoundaryDivergence) {
  // Same totals, different attribution: a fake bulk path that charges a
  // "batch" spanning a phase boundary entirely inside the first phase.
  // Real send_bulk may never do this (the whole batch belongs to the
  // call-time phase set); the harness must catch an engine that got it
  // wrong even though the grand totals agree.
  const AbResult r = run_ab([](Machine& m) {
    if (Machine::bulk_charging()) {
      Machine::PhaseScope a(m, "phase_a");
      (void)m.send({0, 0}, {0, 1}, Clock{});
      (void)m.send({0, 1}, {0, 2}, Clock{});
    } else {
      {
        Machine::PhaseScope a(m, "phase_a");
        (void)m.send({0, 0}, {0, 1}, Clock{});
      }
      {
        Machine::PhaseScope b(m, "phase_b");
        (void)m.send({0, 1}, {0, 2}, Clock{});
      }
    }
  });
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.totals_equal);
  EXPECT_FALSE(r.phases_equal);
  EXPECT_NE(r.diff().find("phase_b"), std::string::npos) << r.diff();
}

// ---- send_bulk edge cases --------------------------------------------------

/// Counts bulk events and replayed per-message events.
class CountingSink final : public TraceSink {
 public:
  void on_message(Coord, Coord, index_t) override { ++messages; }
  void on_send_bulk(std::span<const MessageEvent> batch) override {
    ++bulk_events;
    last_batch_size = static_cast<index_t>(batch.size());
    TraceSink::on_send_bulk(batch);  // default replay feeds on_message
  }
  void on_birth(Coord, Clock) override { ++births; }
  void on_death(Coord) override { ++deaths; }

  index_t messages{0};
  index_t bulk_events{0};
  index_t last_batch_size{0};
  index_t births{0};
  index_t deaths{0};
};

TEST(SendBulk, EmptyBatchIsANoOp) {
  CountingSink sink;
  Machine m;
  m.set_trace(&sink);
  m.send_bulk({});
  EXPECT_EQ(m.metrics(), Metrics{});
  EXPECT_EQ(sink.bulk_events, 0);
  EXPECT_EQ(sink.messages, 0);
  m.set_trace(nullptr);
}

TEST(SendBulk, AllZeroLengthBatchIsFreeAndUnreported) {
  CountingSink sink;
  Machine m;
  m.set_trace(&sink);
  std::vector<MessageEvent> batch(3);
  for (int i = 0; i < 3; ++i) {
    batch[static_cast<size_t>(i)] =
        MessageEvent{{i, i}, {i, i}, 0, Clock{2, 5}, Clock{}};
  }
  m.send_bulk(batch);
  EXPECT_EQ(m.metrics(), Metrics{});
  EXPECT_EQ(sink.bulk_events, 0);
  EXPECT_EQ(sink.messages, 0);
  // Zero-length entries still get their arrival clocks (= payload).
  for (const MessageEvent& e : batch) {
    EXPECT_EQ(e.distance, 0);
    EXPECT_EQ(e.arrival, (Clock{2, 5}));
  }
  m.set_trace(nullptr);
}

TEST(SendBulk, FillsDistancesAndArrivalClocks) {
  Machine m;
  std::vector<MessageEvent> batch(2);
  batch[0] = MessageEvent{{0, 0}, {2, 3}, 0, Clock{1, 4}, Clock{}};
  batch[1] = MessageEvent{{1, 1}, {1, 1}, 0, Clock{7, 9}, Clock{}};
  m.send_bulk(batch);
  EXPECT_EQ(batch[0].distance, 5);
  EXPECT_EQ(batch[0].arrival, (Clock{1, 4}.after_hop(5)));
  EXPECT_EQ(batch[1].distance, 0);
  EXPECT_EQ(batch[1].arrival, (Clock{7, 9}));
  EXPECT_EQ(m.metrics().energy, 5);
  EXPECT_EQ(m.metrics().messages, 1);
  EXPECT_EQ(m.metrics().max_clock, (Clock{1, 4}.after_hop(5)));
}

TEST(SendBulk, BatchAttributesToCallTimePhaseSet) {
  // The whole batch belongs to the phase set active at the call — in both
  // charging modes — and a batch issued between phases belongs to none.
  for (const bool bulk : {false, true}) {
    ScopedBulkCharging mode(bulk);
    Machine m;
    std::vector<MessageEvent> batch(2);
    auto fill = [&] {
      batch[0] = MessageEvent{{0, 0}, {0, 1}, 0, Clock{}, Clock{}};
      batch[1] = MessageEvent{{0, 1}, {0, 3}, 0, Clock{}, Clock{}};
    };
    {
      Machine::PhaseScope inside(m, "inside");
      fill();
      m.send_bulk(batch);
    }
    fill();
    m.send_bulk(batch);  // outside any phase
    EXPECT_EQ(m.phase("inside").energy, 3) << "bulk=" << bulk;
    EXPECT_EQ(m.phase("inside").messages, 2) << "bulk=" << bulk;
    EXPECT_EQ(m.metrics().energy, 6) << "bulk=" << bulk;
    EXPECT_EQ(m.metrics().messages, 4) << "bulk=" << bulk;
  }
}

TEST(BirthDeathBulk, ReplayMatchesScalar) {
  for (const bool bulk : {false, true}) {
    ScopedBulkCharging mode(bulk);
    CountingSink sink;
    Machine m;
    m.set_trace(&sink);
    const std::vector<BirthEvent> births = {
        {{0, 0}, Clock{1, 2}}, {{0, 1}, Clock{3, 4}}, {{1, 0}, Clock{}}};
    m.birth_bulk(births);
    const std::vector<Coord> deaths = {{0, 0}, {0, 1}, {1, 0}};
    m.death_bulk(deaths);
    EXPECT_EQ(sink.births, 3) << "bulk=" << bulk;
    EXPECT_EQ(sink.deaths, 3) << "bulk=" << bulk;
    EXPECT_EQ(m.metrics().max_clock, (Clock{3, 4})) << "bulk=" << bulk;
    EXPECT_EQ(m.metrics().messages, 0) << "bulk=" << bulk;
    m.set_trace(nullptr);
  }
}

TEST(BirthDeathBulk, EmptyBatchesAreNoOps) {
  CountingSink sink;
  Machine m;
  m.set_trace(&sink);
  m.birth_bulk({});
  m.death_bulk({});
  EXPECT_EQ(sink.births, 0);
  EXPECT_EQ(sink.deaths, 0);
  EXPECT_EQ(m.metrics(), Metrics{});
  m.set_trace(nullptr);
}

}  // namespace
}  // namespace scm
