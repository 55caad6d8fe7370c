// Tests of reduce / all-reduce (Section IV-B, Corollary IV.2).
#include "collectives/reduce.hpp"

#include "spatial/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

namespace scm {
namespace {

TEST(Reduce, SumsAllElements) {
  Machine m;
  auto vals = random_ints(3, 256, -100, 100);
  std::vector<long long> v(vals.begin(), vals.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v);
  const Cell<long long> out = reduce(m, a, Plus{});
  EXPECT_EQ(out.value, std::accumulate(v.begin(), v.end(), 0LL));
}

TEST(Reduce, WorksWithMinMaxOperators) {
  Machine m;
  auto vals = random_ints(4, 100, -1000, 1000);
  std::vector<long long> v(vals.begin(), vals.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v,
                                                    Layout::kRowMajor);
  EXPECT_EQ(reduce(m, a, Min{}).value, *std::min_element(v.begin(), v.end()));
  EXPECT_EQ(reduce(m, a, Max{}).value, *std::max_element(v.begin(), v.end()));
}

TEST(Reduce, SingleElement) {
  Machine m;
  auto a = GridArray<int>::from_values_square({5, 5}, {99});
  EXPECT_EQ(reduce(m, a, Plus{}).value, 99);
  EXPECT_EQ(m.metrics().energy, 0);
}

TEST(Reduce, UnderfilledArray) {
  // 10 elements on a 4x4 region: element-free processors act as relays.
  Machine m;
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto a = GridArray<int>::from_values_square({0, 0}, v);
  EXPECT_EQ(reduce(m, a, Plus{}).value, 55);
}

TEST(Reduce, ReduceFromMaskedBufferMatchesReduce) {
  // reduce() is a thin caller of reduce_from(): the same underfilled
  // Z-order array held as a row-major buffer plus a present-cell mask
  // reduces to the same cell at the same costs.
  auto vals = random_ints(5, 37, -50, 50);
  auto a = GridArray<index_t>::from_values_square({-3, 6}, vals);
  for (index_t i = 0; i < a.size(); ++i) a[i].clock = Clock{i % 3, i};
  Machine via_array;
  const Cell<index_t> want = reduce(via_array, a, Plus{});

  const Rect& r = a.region();
  std::vector<Cell<index_t>> cells(static_cast<size_t>(r.size()));
  std::vector<char> present(static_cast<size_t>(r.size()), 0);
  for (index_t i = 0; i < a.size(); ++i) {
    const Coord c = a.coord(i);
    const auto k =
        static_cast<size_t>((c.row - r.row0) * r.cols + (c.col - r.col0));
    cells[k] = a[i];
    present[k] = 1;
  }
  Machine via_getter;
  const Cell<index_t> got = reduce_from<index_t>(
      via_getter, r,
      [&](Coord c) -> const Cell<index_t>* {
        const auto k =
            static_cast<size_t>((c.row - r.row0) * r.cols + (c.col - r.col0));
        return present[k] != 0 ? &cells[k] : nullptr;
      },
      Plus{});
  EXPECT_EQ(got.value, want.value);
  EXPECT_EQ(got.clock, want.clock);
  EXPECT_EQ(via_getter.metrics(), via_array.metrics());
}

TEST(Reduce, OffsetSubrange) {
  // A Z-order range [4, 8) of a 4x4 parent: reduce sees only that range.
  GridArray<int> part(Rect{0, 0, 4, 4}, Layout::kZOrder, 4, 4);
  for (index_t i = 0; i < 4; ++i) part[i].value = static_cast<int>(i + 1);
  Machine m;
  EXPECT_EQ(reduce(m, part, Plus{}).value, 10);
}

TEST(Reduce, SkewedShapes) {
  for (const Rect rect : {Rect{0, 0, 64, 2}, Rect{0, 0, 2, 64},
                          Rect{0, 0, 1, 100}, Rect{0, 0, 100, 1}}) {
    Machine m;
    GridArray<int> a(rect, Layout::kRowMajor, rect.size());
    for (index_t i = 0; i < a.size(); ++i) a[i].value = 1;
    EXPECT_EQ(reduce(m, a, Plus{}).value, rect.size()) << rect.str();
  }
}

TEST(Reduce, EnergyLinearOnSquares) {
  auto energy_per_element = [](index_t side) {
    Machine m;
    GridArray<int> a(Rect{0, 0, side, side}, Layout::kRowMajor, side * side);
    (void)reduce(m, a, Plus{});
    return static_cast<double>(m.metrics().energy) /
           static_cast<double>(side * side);
  };
  EXPECT_NEAR(energy_per_element(16), energy_per_element(64), 0.5);
}

TEST(Reduce, DepthLogarithmic) {
  Machine m;
  GridArray<int> a(Rect{0, 0, 64, 64}, Layout::kRowMajor, 4096);
  (void)reduce(m, a, Plus{});
  EXPECT_LE(m.metrics().depth(), 3 * 12 + 3);
}

TEST(AllReduce, EveryProcessorGetsTheTotal) {
  Machine m;
  auto vals = random_ints(5, 64, 0, 9);
  std::vector<long long> v(vals.begin(), vals.end());
  auto a = GridArray<long long>::from_values_square({0, 0}, v);
  GridArray<long long> out = all_reduce(m, a, Plus{});
  const long long want = std::accumulate(v.begin(), v.end(), 0LL);
  ASSERT_EQ(out.size(), a.region().size());
  for (index_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].value, want);
}

TEST(AllReduce, DepthIsTwiceTreeHeightPlusConstant) {
  Machine m;
  GridArray<int> a(Rect{0, 0, 32, 32}, Layout::kRowMajor, 1024);
  (void)all_reduce(m, a, Plus{});
  EXPECT_LE(m.metrics().depth(), 2 * (3 * 10 + 3));
}

}  // namespace
}  // namespace scm
