// Tests of the broadcast collective (Section IV-A, Lemma IV.1):
// correctness across subgrid shapes, the energy/depth/distance bounds, and
// the per-shape tree cache against the scalar per-edge walk.
#include "collectives/broadcast.hpp"

#include "collectives/operators.hpp"
#include "collectives/reduce.hpp"
#include "select/select.hpp"
#include "sort/allpairs.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/bulk_ab.hpp"
#include "spatial/rng.hpp"
#include "spatial/validate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace scm {
namespace {

class BroadcastShape
    : public ::testing::TestWithParam<std::tuple<index_t, index_t>> {};

TEST_P(BroadcastShape, DeliversToEveryProcessorExactlyOnce) {
  const auto [h, w] = GetParam();
  Machine m;
  const Rect rect{1, 2, h, w};
  GridArray<int> out = broadcast(m, rect, Cell<int>{42, Clock{}});
  ASSERT_EQ(out.size(), h * w);
  for (index_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].value, 42) << "cell " << i;
  }
}

TEST_P(BroadcastShape, MeetsLemmaIV1Bounds) {
  const auto [h, w] = GetParam();
  Machine m;
  const Rect rect{0, 0, h, w};
  (void)broadcast(m, rect, Cell<int>{1, Clock{}});
  const double n = static_cast<double>(h * w);
  const double tall = static_cast<double>(std::max(h, w));
  // Energy O(hw + h log h); generous constant.
  const double bound = 4.0 * (n + tall * (std::log2(tall) + 1));
  EXPECT_LE(static_cast<double>(m.metrics().energy), bound)
      << h << "x" << w;
  // Depth O(log n).
  EXPECT_LE(static_cast<double>(m.metrics().depth()),
            3.0 * (std::log2(n) + 1));
  // Distance O(w + h).
  EXPECT_LE(static_cast<double>(m.metrics().distance()),
            4.0 * static_cast<double>(h + w));
}

const std::vector<std::tuple<index_t, index_t>> kShapes{
    {1, 1},  {1, 2},   {2, 1},   {2, 2},   {3, 3},  {4, 4},
    {16, 16}, {32, 32}, {64, 64}, {64, 1},  {1, 64}, {128, 4},
    {4, 128}, {96, 32}, {7, 5},   {33, 17}, {256, 2}};

INSTANTIATE_TEST_SUITE_P(Shapes, BroadcastShape,
                         ::testing::ValuesIn(kShapes));

TEST(Broadcast, TreeArrivalsMatchBroadcastArray) {
  // broadcast() fills its array from the tree broadcast_tree() returns: on
  // a skewed rect at a negative origin both report every processor's
  // arrival clock alike and charge the same costs.
  const Rect rect{-2, 4, 3, 11};
  const Cell<int> src{7, Clock{2, 5}};
  Machine via_array;
  const GridArray<int> out = broadcast(via_array, rect, src);
  Machine via_tree;
  const BroadcastTree& tree = broadcast_tree(via_tree, rect, src.clock);
  for (index_t r = 0; r < rect.rows; ++r) {
    for (index_t c = 0; c < rect.cols; ++c) {
      const index_t i = r * rect.cols + c;
      EXPECT_EQ(out[i].value, 7) << "cell " << i;
      EXPECT_EQ(tree.arrival(src.clock, r, c), out[i].clock) << "cell " << i;
    }
  }
  EXPECT_EQ(via_tree.metrics(), via_array.metrics());
  EXPECT_EQ(via_tree.phases(), via_array.phases());
}

/// Arrival clock per rect-relative processor, as the charged messages of
/// one broadcast deliver them.
class ArrivalRecorder final : public TraceSink {
 public:
  explicit ArrivalRecorder(const Rect& rect)
      : rect_(rect), arrivals_(static_cast<size_t>(rect.size())) {}
  void on_message(Coord, Coord, index_t) override {}
  void on_send(const MessageEvent& e) override {
    ASSERT_TRUE(rect_.contains(e.to));
    const auto k = static_cast<size_t>((e.to.row - rect_.row0) * rect_.cols +
                                       (e.to.col - rect_.col0));
    ++received_[k];
    arrivals_[k] = e.arrival;
  }
  [[nodiscard]] Clock arrival(index_t r, index_t c) const {
    return arrivals_[static_cast<size_t>(r * rect_.cols + c)];
  }
  [[nodiscard]] int received(index_t r, index_t c) const {
    const auto it = received_.find(static_cast<size_t>(r * rect_.cols + c));
    return it == received_.end() ? 0 : it->second;
  }

 private:
  Rect rect_;
  std::vector<Clock> arrivals_;
  std::map<size_t, int> received_;
};

/// Checks the cached tree of `rect`'s shape against the scalar-mode walk:
/// every processor but the root receives exactly one message, at the
/// tree's arrival clock, and the totals match.
void expect_tree_matches_scalar_walk(const Rect& rect) {
  const Clock root{3, 7};
  const ScopedBulkCharging scalar(false);
  Machine m;
  ArrivalRecorder rec(rect);
  m.set_trace(&rec);
  const BroadcastTree& tree = broadcast_tree(m, rect, root);
  m.set_trace(nullptr);
  const std::string shape =
      std::to_string(rect.rows) + "x" + std::to_string(rect.cols);
  ASSERT_EQ(tree.rows, rect.rows) << shape;
  ASSERT_EQ(tree.cols, rect.cols) << shape;
  EXPECT_EQ(tree.energy, m.metrics().energy) << shape;
  EXPECT_EQ(tree.messages, m.metrics().messages) << shape;
  EXPECT_EQ(tree.messages, rect.size() - 1) << shape;
  if (tree.messages > 0) {
    EXPECT_EQ(tree.totals(root).max_clock, m.metrics().max_clock) << shape;
  }
  for (index_t r = 0; r < rect.rows; ++r) {
    for (index_t c = 0; c < rect.cols; ++c) {
      if (r == 0 && c == 0) {
        EXPECT_EQ(rec.received(r, c), 0) << shape;
        EXPECT_EQ(tree.arrival(root, r, c), root) << shape;
        continue;
      }
      ASSERT_EQ(rec.received(r, c), 1) << shape << " at " << r << "," << c;
      EXPECT_EQ(tree.arrival(root, r, c), rec.arrival(r, c))
          << shape << " at " << r << "," << c;
      // Every path is monotone (down/right), so the distance offset is the
      // Manhattan distance from the root.
      EXPECT_EQ(rec.arrival(r, c).distance - root.distance, r + c)
          << shape << " at " << r << "," << c;
    }
  }
}

TEST(BroadcastTree, MatchesScalarWalkOnEveryShapeUpTo40) {
  for (index_t rows = 1; rows <= 40; ++rows) {
    for (index_t cols = 1; cols <= 40; ++cols) {
      expect_tree_matches_scalar_walk(Rect{-5, 9, rows, cols});
    }
  }
}

TEST(BroadcastTree, MatchesScalarWalkOnSkewedShapes) {
  const std::vector<std::pair<index_t, index_t>> shapes{
      {1, 64}, {1, 257}, {64, 1}, {257, 1}, {3, 17}, {17, 3},
      {64, 8}, {8, 64},  {2, 300}, {300, 2}};
  for (const auto& [rows, cols] : shapes) {
    expect_tree_matches_scalar_walk(Rect{4, -6, rows, cols});
  }
}

TEST(BroadcastTree, SingleProcessorChargesNothing) {
  // A 1x1 broadcast has no message: neither path may observe the root
  // clock or mark the "broadcast" phase touched.
  for (const bool bulk : {true, false}) {
    const ScopedBulkCharging mode(bulk);
    Machine m;
    const BroadcastTree& tree = broadcast_tree(m, Rect{2, 3, 1, 1}, {4, 4});
    EXPECT_EQ(tree.arrival({4, 4}, 0, 0), (Clock{4, 4}));
    EXPECT_EQ(m.metrics(), Metrics{}) << "bulk=" << bulk;
    EXPECT_TRUE(m.phases().empty()) << "bulk=" << bulk;
    EXPECT_TRUE(m.touched_phases().empty()) << "bulk=" << bulk;
  }
}

/// Everything a broadcast consumer exposes: costs, per-phase records and
/// output (values with clocks).
struct Outcome {
  Metrics totals;
  std::map<std::string, Metrics> phases;
  std::vector<index_t> values;
  std::vector<Clock> clocks;

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

template <class T>
void append(Outcome& o, const GridArray<T>& a) {
  for (index_t i = 0; i < a.size(); ++i) {
    o.values.push_back(static_cast<index_t>(a[i].value));
    o.clocks.push_back(a[i].clock);
  }
}

/// Runs every broadcast consumer — broadcast() on skewed rects,
/// all_reduce, select_rank (pivot broadcasts), All-Pairs Sort (block
/// broadcasts) and mergesort2d (merge-plan broadcasts) — on one machine.
Outcome run_consumers() {
  Machine m;
  Outcome o;
  append(o, broadcast(m, Rect{-3, 2, 5, 37}, Cell<int>{9, Clock{1, 2}}));
  append(o, broadcast(m, Rect{0, 0, 64, 3}, Cell<int>{4, Clock{}}));
  const auto ints = random_ints(7, 300, -1000, 1000);
  const auto arr = GridArray<std::int64_t>::from_values_square({1, -4}, ints);
  append(o, all_reduce(m, arr, Plus{}));
  const SelectResult<std::int64_t> sel = select_rank(m, arr, 150, 11);
  o.values.push_back(static_cast<index_t>(sel.value));
  append(o, allpairs_sort_stable(m, arr, std::less<std::int64_t>{}));
  const auto keys = GridArray<std::int64_t>::from_values_square(
      {-2, 3}, random_ints(5, 1500, -50, 50), Layout::kRowMajor);
  append(o, mergesort2d(m, keys));
  o.totals = m.metrics();
  o.phases = m.phases();
  return o;
}

TEST(BroadcastTree, UntracedFastPathMatchesScalarReference) {
  // Every other test runs under the global conformance sink, which makes
  // send_tree walk the tree as per-edge sends. With no sink attached the
  // bulk path is the single accrual that perfbench measures: compare it
  // with the scalar per-edge reference.
  const ScopedGlobalTraceSuspension untraced;
  ASSERT_EQ(Machine::global_trace(), nullptr);
  Outcome fast;
  Outcome scalar;
  {
    const ScopedBulkCharging mode(true);
    fast = run_consumers();
  }
  {
    const ScopedBulkCharging mode(false);
    scalar = run_consumers();
  }
  EXPECT_GT(fast.totals.messages, 0);
  EXPECT_EQ(fast.totals, scalar.totals);
  EXPECT_EQ(fast.phases, scalar.phases);
  EXPECT_TRUE(fast.phases.contains("broadcast"));
  EXPECT_EQ(fast.values, scalar.values);
  EXPECT_EQ(fast.clocks, scalar.clocks);
}

TEST(Broadcast, ClockStartsFromSourceValue) {
  Machine m;
  GridArray<int> out = broadcast(m, Rect{0, 0, 4, 4}, Cell<int>{7,
                                                                Clock{3, 10}});
  for (index_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out[i].clock.depth, 3);
    EXPECT_GE(out[i].clock.distance, 10);
  }
}

TEST(Broadcast, SquareEnergyIsLinear) {
  // On square subgrids the quadrant broadcast is O(n) energy — the log n
  // improvement over the binomial-tree baseline (Section II-A). Check the
  // per-element energy stays bounded as n grows 16x.
  Machine m;
  (void)broadcast(m, Rect{0, 0, 16, 16}, Cell<int>{1, Clock{}});
  const double small = static_cast<double>(m.metrics().energy) / 256.0;
  m.reset();
  (void)broadcast(m, Rect{0, 0, 64, 64}, Cell<int>{1, Clock{}});
  const double large = static_cast<double>(m.metrics().energy) / 4096.0;
  EXPECT_NEAR(small, large, 0.5);
}

TEST(Broadcast, DepthGrowsLogarithmically) {
  Machine m;
  (void)broadcast(m, Rect{0, 0, 64, 64}, Cell<int>{1, Clock{}});
  const index_t d64 = m.metrics().depth();
  m.reset();
  (void)broadcast(m, Rect{0, 0, 128, 128}, Cell<int>{1, Clock{}});
  const index_t d128 = m.metrics().depth();
  EXPECT_LE(d128 - d64, 4);  // doubling the side adds O(1) levels
}

}  // namespace
}  // namespace scm
