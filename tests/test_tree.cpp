// Tests of the spatial tree workload tier (src/tree/): host-reference
// oracles, machine-vs-host agreement across every generator family and a
// size ladder, metamorphic exactness (relabeling and translation leave
// all metrics bit-identical), and the scalar/bulk charging identity
// (run_ab) for each algorithm.
#include "tree/tree.hpp"

#include "collectives/operators.hpp"
#include "spatial/bulk_ab.hpp"
#include "spatial/machine.hpp"
#include "testing/gen.hpp"
#include "tree/contraction.hpp"
#include "tree/euler.hpp"
#include "tree/lca.hpp"
#include "tree/reductions.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <utility>
#include <vector>

namespace scm {
namespace {

using testing::Rng;
using testing::TreeShape;
using tree::DenseTree;
using tree::Tree;

constexpr TreeShape kShapes[] = {
    TreeShape::kPath, TreeShape::kStar, TreeShape::kCaterpillar,
    TreeShape::kBalancedBinary, TreeShape::kRandomPrufer};
constexpr index_t kSizes[] = {1, 2, 3, 5, 8, 16, 33};

/// A seeded tree of the given family with a random root.
Tree make_tree(std::uint64_t seed, index_t n, TreeShape shape) {
  Rng rng(seed);
  Tree t;
  t.n = n;
  t.edges = testing::gen_tree(rng, n, shape);
  t.root = rng.uniform(0, n - 1);
  EXPECT_TRUE(tree::is_tree(t));
  return t;
}

std::vector<std::int64_t> make_values(std::uint64_t seed, index_t n) {
  Rng rng(seed);
  std::vector<std::int64_t> vals(static_cast<size_t>(n));
  for (auto& v : vals) v = rng.uniform(-50, 50);
  return vals;
}

std::vector<std::int64_t> dense_values(const DenseTree& dt,
                                       const std::vector<std::int64_t>& x) {
  std::vector<std::int64_t> out(static_cast<size_t>(dt.n));
  for (index_t d = 0; d < dt.n; ++d) {
    out[static_cast<size_t>(d)] =
        x[static_cast<size_t>(dt.to_label[static_cast<size_t>(d)])];
  }
  return out;
}

// ---- host oracles ----------------------------------------------------------

TEST(TreeHost, IsTreeRejectsMalformedInputs) {
  EXPECT_FALSE(tree::is_tree(Tree{0, {}, 0}));
  EXPECT_TRUE(tree::is_tree(Tree{1, {}, 0}));
  EXPECT_FALSE(tree::is_tree(Tree{1, {}, 1}));          // root out of range
  EXPECT_FALSE(tree::is_tree(Tree{2, {}, 0}));          // missing edge
  EXPECT_FALSE(tree::is_tree(Tree{2, {{0, 0}}, 0}));    // self-loop
  EXPECT_FALSE(tree::is_tree(Tree{3, {{0, 1}, {1, 0}}, 0}));  // cycle
  EXPECT_TRUE(tree::is_tree(Tree{3, {{2, 1}, {1, 0}}, 2}));
}

TEST(TreeHost, EulerTourOfAPath) {
  // 0 - 1 - 2 rooted at 0: tour visits 1, 2, back to 1, back to 0.
  const Tree t{3, {{0, 1}, {1, 2}}, 0};
  const tree::HostTour h = tree::host_euler_tour(tree::normalize(t));
  EXPECT_EQ(h.parent, (std::vector<index_t>{-1, 0, 1}));
  EXPECT_EQ(h.depth, (std::vector<index_t>{0, 1, 2}));
  EXPECT_EQ(h.first, (std::vector<index_t>{-1, 0, 1}));
  EXPECT_EQ(h.last, (std::vector<index_t>{4, 3, 2}));
}

TEST(TreeHost, RootfixAndLeaffixOnAStar) {
  const Tree t{4, {{0, 1}, {0, 2}, {0, 3}}, 0};
  const std::vector<std::int64_t> x{1, 10, 100, 1000};
  const auto down = tree::host_rootfix(t, x, Plus{});
  EXPECT_EQ(down, (std::vector<std::int64_t>{1, 11, 101, 1001}));
  const auto up = tree::host_leaffix(t, x, Plus{});
  EXPECT_EQ(up, (std::vector<std::int64_t>{1111, 10, 100, 1000}));
}

TEST(TreeHost, LcaOnACaterpillar) {
  // Spine 0-1-2 with leaves 3 (on 1) and 4 (on 2), rooted at 0.
  const Tree t{5, {{0, 1}, {1, 2}, {1, 3}, {2, 4}}, 0};
  const auto got =
      tree::host_lca(t, {{3, 4}, {3, 1}, {4, 4}, {0, 4}, {3, 2}});
  EXPECT_EQ(got, (std::vector<index_t>{1, 1, 4, 0, 1}));
}

// ---- machine vs host across families and sizes -----------------------------

TEST(TreeMachine, EulerTourMatchesHostEverywhere) {
  for (const TreeShape shape : kShapes) {
    for (const index_t n : kSizes) {
      const Tree t = make_tree(0xE0 + n, n, shape);
      const DenseTree dt = tree::normalize(t);
      Machine m;
      const tree::EulerTour tour = tree::euler_tour(m, dt, {0, 0});
      const tree::HostTour want = tree::host_euler_tour(dt);
      EXPECT_EQ(tour.parent, want.parent)
          << testing::to_string(shape) << " n=" << n;
      EXPECT_EQ(tour.depth, want.depth);
      EXPECT_EQ(tour.first, want.first);
      EXPECT_EQ(tour.last, want.last);
      if (n > 1) {
        EXPECT_GT(m.metrics().depth(), 0) << "n=" << n;
      }
    }
  }
}

TEST(TreeMachine, ReductionsMatchHostEverywhere) {
  const auto neg = [](std::int64_t v) { return -v; };
  for (const TreeShape shape : kShapes) {
    for (const index_t n : kSizes) {
      const Tree t = make_tree(0xF0 + n, n, shape);
      const DenseTree dt = tree::normalize(t);
      const std::vector<std::int64_t> x = make_values(0x5EED + n, n);
      Machine m;
      const tree::EulerTour tour = tree::euler_tour(m, dt, {0, 0});
      const auto down =
          tree::rootfix(m, tour, dense_values(dt, x), Plus{}, neg);
      const auto up = tree::leaffix(m, tour, dense_values(dt, x), Plus{},
                                    neg, std::int64_t{0});
      const auto want_down = tree::host_rootfix(t, x, Plus{});
      const auto want_up = tree::host_leaffix(t, x, Plus{});
      for (index_t d = 0; d < n; ++d) {
        const auto v = static_cast<size_t>(dt.to_label[static_cast<size_t>(d)]);
        EXPECT_EQ(down[static_cast<size_t>(d)], want_down[v])
            << testing::to_string(shape) << " n=" << n << " vertex " << v;
        EXPECT_EQ(up[static_cast<size_t>(d)], want_up[v])
            << testing::to_string(shape) << " n=" << n << " vertex " << v;
      }
    }
  }
}

TEST(TreeMachine, ContractionFoldsTheWholeTree) {
  for (const TreeShape shape : kShapes) {
    for (const index_t n : kSizes) {
      const Tree t = make_tree(0xC0 + n, n, shape);
      const DenseTree dt = tree::normalize(t);
      const std::vector<std::int64_t> x = make_values(0xACC + n, n);
      Machine m;
      const auto r =
          tree::tree_contract(m, dt, dense_values(dt, x), Plus{}, 42, {0, 0});
      EXPECT_EQ(r.value,
                std::accumulate(x.begin(), x.end(), std::int64_t{0}))
          << testing::to_string(shape) << " n=" << n;
      EXPECT_GE(r.survivor, 0);
      EXPECT_LT(r.survivor, n);
      EXPECT_LE(r.rounds, std::max<index_t>(n - 1, 0));
      // Every vertex but the survivor is eliminated in some round.
      index_t eliminated = 0;
      for (const index_t rd : r.elim_round) eliminated += rd > 0 ? 1 : 0;
      EXPECT_EQ(eliminated, n - 1);
    }
  }
}

TEST(TreeMachine, LcaMatchesHostEverywhere) {
  for (const TreeShape shape : kShapes) {
    for (const index_t n : kSizes) {
      const Tree t = make_tree(0x1CA + n, n, shape);
      const DenseTree dt = tree::normalize(t);
      Rng rng(0xA0 + static_cast<std::uint64_t>(n));
      std::vector<std::pair<index_t, index_t>> qs;
      for (index_t i = 0; i < std::min<index_t>(2 * n, 24); ++i) {
        qs.emplace_back(rng.uniform(0, n - 1), rng.uniform(0, n - 1));
      }
      std::vector<std::pair<index_t, index_t>> dense_qs;
      for (const auto& [a, b] : qs) {
        dense_qs.emplace_back(dt.to_dense[static_cast<size_t>(a)],
                              dt.to_dense[static_cast<size_t>(b)]);
      }
      Machine m;
      const tree::EulerTour tour = tree::euler_tour(m, dt, {0, 0});
      const tree::LcaResult r = tree::lca(m, dt, tour, dense_qs, {0, 0});
      const std::vector<index_t> want = tree::host_lca(t, qs);
      ASSERT_EQ(r.answers.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(dt.to_label[static_cast<size_t>(r.answers[i])], want[i])
            << testing::to_string(shape) << " n=" << n << " query " << i;
      }
    }
  }
}

// ---- metamorphic exactness -------------------------------------------------

Metrics run_tree_pipeline(const Tree& t, const std::vector<std::int64_t>& x,
                          Coord origin) {
  const DenseTree dt = tree::normalize(t);
  Machine m;
  const tree::EulerTour tour = tree::euler_tour(m, dt, origin);
  const auto neg = [](std::int64_t v) { return -v; };
  (void)tree::rootfix(m, tour, dense_values(dt, x), Plus{}, neg);
  (void)tree::leaffix(m, tour, dense_values(dt, x), Plus{}, neg,
                      std::int64_t{0});
  return m.metrics();
}

TEST(TreeMetamorphic, VertexRelabelingIsUnobservable) {
  // Dense first-appearance normalization makes the label space invisible:
  // a renamed tree must produce byte-identical metrics, not merely equal
  // results.
  const index_t n = 21;
  const Tree t = make_tree(0xBEEF, n, TreeShape::kCaterpillar);
  const std::vector<std::int64_t> x = make_values(0xF00D, n);
  const Metrics base = run_tree_pipeline(t, x, {3, -5});

  Rng sig_rng(0x516);
  const std::vector<index_t> sigma = testing::gen_permutation(sig_rng, n);
  Tree renamed;
  renamed.n = n;
  renamed.root = sigma[static_cast<size_t>(t.root)];
  for (const auto& [u, v] : t.edges) {
    renamed.edges.emplace_back(sigma[static_cast<size_t>(u)],
                               sigma[static_cast<size_t>(v)]);
  }
  std::vector<std::int64_t> rx(static_cast<size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    rx[static_cast<size_t>(sigma[static_cast<size_t>(v)])] =
        x[static_cast<size_t>(v)];
  }
  const Metrics moved = run_tree_pipeline(renamed, rx, {3, -5});
  EXPECT_EQ(base, moved);
}

TEST(TreeMetamorphic, TranslationPreservesEveryMetric) {
  const index_t n = 18;
  const Tree t = make_tree(0xABBA, n, TreeShape::kRandomPrufer);
  const std::vector<std::int64_t> x = make_values(0xD00F, n);
  const Metrics at_origin = run_tree_pipeline(t, x, {0, 0});
  const Metrics shifted = run_tree_pipeline(t, x, {-23, 41});
  EXPECT_EQ(at_origin, shifted);
}

// ---- scalar / bulk charging identity --------------------------------------

void expect_ab_identical(const std::function<void(Machine&)>& algorithm) {
  const AbResult r = run_ab(algorithm);
  EXPECT_TRUE(r.ok()) << r.diff();
  EXPECT_GT(r.bulk.totals.messages, 0);
}

TEST(TreeAbc, EulerTourChargesIdentically) {
  const Tree t = make_tree(0xAB1, 19, TreeShape::kCaterpillar);
  const DenseTree dt = tree::normalize(t);
  expect_ab_identical(
      [&](Machine& m) { (void)tree::euler_tour(m, dt, {0, 0}); });
}

TEST(TreeAbc, ReductionsChargeIdentically) {
  const Tree t = make_tree(0xAB2, 17, TreeShape::kBalancedBinary);
  const DenseTree dt = tree::normalize(t);
  const std::vector<std::int64_t> x = make_values(0xAB2, 17);
  expect_ab_identical([&](Machine& m) {
    const tree::EulerTour tour = tree::euler_tour(m, dt, {0, 0});
    const auto neg = [](std::int64_t v) { return -v; };
    (void)tree::rootfix(m, tour, dense_values(dt, x), Plus{}, neg);
    (void)tree::leaffix(m, tour, dense_values(dt, x), Plus{}, neg,
                        std::int64_t{0});
  });
}

TEST(TreeAbc, ContractionChargesIdentically) {
  const Tree t = make_tree(0xAB3, 15, TreeShape::kRandomPrufer);
  const DenseTree dt = tree::normalize(t);
  const std::vector<std::int64_t> x = make_values(0xAB3, 15);
  expect_ab_identical([&](Machine& m) {
    (void)tree::tree_contract(m, dt, dense_values(dt, x), Plus{}, 7, {0, 0});
  });
}

TEST(TreeAbc, LcaChargesIdentically) {
  const Tree t = make_tree(0xAB4, 13, TreeShape::kPath);
  const DenseTree dt = tree::normalize(t);
  std::vector<std::pair<index_t, index_t>> qs;
  Rng rng(0xAB4);
  for (int i = 0; i < 9; ++i) {
    qs.emplace_back(rng.uniform(0, 12), rng.uniform(0, 12));
  }
  for (auto& [a, b] : qs) {
    a = dt.to_dense[static_cast<size_t>(a)];
    b = dt.to_dense[static_cast<size_t>(b)];
  }
  expect_ab_identical([&](Machine& m) {
    const tree::EulerTour tour = tree::euler_tour(m, dt, {0, 0});
    (void)tree::lca(m, dt, tour, qs, {0, 0});
  });
}

}  // namespace
}  // namespace scm
