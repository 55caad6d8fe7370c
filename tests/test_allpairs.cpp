// Tests of All-Pairs Sort (Section V-C-a, Lemma V.5).
#include "sort/allpairs.hpp"

#include "spatial/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace scm {
namespace {

class AllPairsSweep
    : public ::testing::TestWithParam<std::tuple<index_t, std::uint64_t>> {};

TEST_P(AllPairsSweep, SortsDistinctDoubles) {
  const auto [n, seed] = GetParam();
  Machine m;
  auto v = random_doubles(seed, static_cast<size_t>(n));
  auto a = GridArray<double>::from_values_square({0, 0}, v);
  GridArray<double> s = allpairs_sort(m, a, std::less<double>{});
  auto ref = v;
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(s.values(), ref) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, AllPairsSweep,
    ::testing::Combine(::testing::Values<index_t>(1, 2, 3, 4, 5, 8, 16, 17,
                                                  64, 100, 128),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(AllPairsStable, DuplicateKeysKeepInputOrder) {
  Machine m;
  std::vector<std::pair<int, int>> v;
  std::mt19937_64 rng(3);
  for (int i = 0; i < 100; ++i) v.emplace_back(static_cast<int>(rng() % 4), i);
  auto a = GridArray<std::pair<int, int>>::from_values_square({0, 0}, v);
  auto s = allpairs_sort_stable(
      m, a, [](const auto& x, const auto& y) { return x.first < y.first; });
  auto ref = v;
  std::stable_sort(ref.begin(), ref.end(), [](const auto& x, const auto& y) {
    return x.first < y.first;
  });
  EXPECT_EQ(s.values(), ref);
}

TEST(AllPairsStable, AllEqual) {
  Machine m;
  std::vector<int> v(37, 9);
  auto a = GridArray<int>::from_values_square({0, 0}, v);
  auto s = allpairs_sort_stable(m, a, std::less<int>{});
  EXPECT_EQ(s.values(), v);
}

TEST(AllPairs, InputLayoutAndOriginDoNotMatter) {
  Machine m;
  auto v = random_doubles(4, 60);
  auto a = GridArray<double>::from_values_square({10, 20}, v,
                                                 Layout::kRowMajor);
  GridArray<double> s = allpairs_sort(m, a, std::less<double>{});
  auto ref = v;
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(s.values(), ref);
  EXPECT_EQ(s.region().origin(), (Coord{10, 20}));
}

TEST(AllPairs, RejectsNonStrictComparatorInEveryBuild) {
  // Duplicate keys under std::less give two elements rank 0; the check is
  // not an assert, so a release build rejects it instead of letting both
  // elements overwrite one output cell.
  Machine m;
  auto a = GridArray<double>::from_values_square({0, 0}, {1.0, 1.0, 2.0});
  try {
    (void)allpairs_sort(m, a, std::less<double>{});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rank 0"), std::string::npos)
        << e.what();
  }
}

TEST(AllPairs, LowDepth) {
  // Lemma V.5: O(log n) depth. At n = 256 the depth must stay well below
  // the Theta(log^2) of bitonic or Theta(sqrt n) of mesh sorts.
  Machine m;
  auto v = random_doubles(5, 256);
  auto a = GridArray<double>::from_values_square({0, 0}, v);
  (void)allpairs_sort(m, a, std::less<double>{});
  EXPECT_LE(static_cast<double>(m.metrics().depth()),
            4.0 * std::log2(256.0));
}

TEST(AllPairs, EnergyShapeIsN52) {
  // Lemma V.5: O(n^{5/2}) energy; the normalized ratio stays bounded.
  auto normalized = [](index_t n) {
    Machine m;
    auto v = random_doubles(6, static_cast<size_t>(n));
    auto a = GridArray<double>::from_values_square({0, 0}, v);
    (void)allpairs_sort(m, a, std::less<double>{});
    return static_cast<double>(m.metrics().energy) /
           std::pow(static_cast<double>(n), 2.5);
  };
  const double r1 = normalized(64);
  const double r2 = normalized(256);
  EXPECT_LT(r2, 2.0 * r1 + 1.0);
  EXPECT_LT(r2, 8.0);
}

}  // namespace
}  // namespace scm
