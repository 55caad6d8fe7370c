// Tests of the broadcast collective (Section IV-A, Lemma IV.1):
// correctness across subgrid shapes and the energy/depth/distance bounds.
#include "collectives/broadcast.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
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

TEST(Broadcast, BroadcastToStoresWhatBroadcastReturns) {
  // broadcast() is a thin caller of broadcast_to(): a store callback on a
  // skewed rect at a negative origin sees every processor with the same
  // arrival clocks, and charges the same costs.
  const Rect rect{-2, 4, 3, 11};
  const Cell<int> src{7, Clock{2, 5}};
  Machine via_array;
  const GridArray<int> out = broadcast(via_array, rect, src);
  Machine via_store;
  std::vector<Clock> clocks(static_cast<size_t>(rect.size()));
  std::vector<int> stores(static_cast<size_t>(rect.size()), 0);
  broadcast_to(via_store, rect, src, [&](Coord c, const Cell<int>& v) {
    const auto k = static_cast<size_t>((c.row - rect.row0) * rect.cols +
                                       (c.col - rect.col0));
    EXPECT_EQ(v.value, 7);
    clocks[k] = v.clock;
    ++stores[k];
  });
  for (index_t i = 0; i < rect.size(); ++i) {
    EXPECT_GE(stores[static_cast<size_t>(i)], 1) << "cell " << i;
    EXPECT_EQ(clocks[static_cast<size_t>(i)], out[i].clock) << "cell " << i;
  }
  EXPECT_EQ(via_store.metrics(), via_array.metrics());
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
