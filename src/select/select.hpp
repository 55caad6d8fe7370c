// Randomized rank selection with linear energy (Section VI, Theorem VI.3).
//
// Selects the rank-k element of n unsorted elements in O(n) energy,
// O(log^2 n) depth, and O(sqrt n) distance, all with high probability (and
// in expectation):
//
//   Elements start *active*; each iteration (while more than c*sqrt(n)
//   remain active, c >= 3):
//     1. sample every active element independently with prob. c/sqrt(N);
//     2. gather the sample into a square subgrid: a scan assigns each
//        sampled element its index, a broadcast communicates the size;
//     3. sort the sample with Bitonic Sort and pick two pivots at ranks
//        r = min(|S|, c k N^{-1/2} + (c/2) N^{1/4} sqrt(ln n)) and
//        l = c k N^{-1/2} - (c/2) N^{1/4} sqrt(ln n)   (s_l = -infinity
//        when k < (1/2) N^{3/4} sqrt(ln n));
//     4. broadcast the pivots;
//     5. count actives below s_l and above s_r with an all-reduce; if
//        N_<l >= k or N_>r >= N - k (a low-probability bad event, Lemma
//        VI.1), fall back to sorting with 2-D Mergesort; otherwise set
//        k -= N_<l;
//     6. deactivate elements outside (s_l, s_r);
//     7. count the remaining actives; if k > ceil(N/2), select the rank
//        N - k element under the reversed order (a logical comparator
//        flip).
//   Finally the <= c*sqrt(n) survivors are gathered and sorted.
//
// The element type is wrapped with ids internally, so duplicate keys are
// fine; the randomness comes from an explicit seed.
#pragma once

#include "collectives/broadcast.hpp"
#include "collectives/compact.hpp"
#include "collectives/reduce.hpp"
#include "collectives/scan.hpp"
#include "sort/bitonic.hpp"
#include "sort/keyed.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"

#include <cassert>
#include <cmath>
#include <functional>
#include <random>
#include <vector>

namespace scm {

/// Outcome of a rank selection.
template <class T>
struct SelectResult {
  T value{};           ///< the rank-k element (1-based rank)
  index_t iterations{0};  ///< sampling rounds executed
  bool fell_back{false};  ///< true if a bad event triggered the sort path
};

/// Tuning knobs of the selection loop, exposed for the ablation benchmark
/// (bench_ablation_tuning). The paper requires the sampling constant
/// c >= 3; larger c lowers the failure probability (Lemma VI.1 gives
/// 2 n^{-c/6}) at the price of larger samples per iteration.
struct SelectConfig {
  double c{3.0};
};

/// Selects the rank-k (1-based, 1 <= k <= n) element of `input` under
/// `less` with the randomized algorithm of Section VI. Deterministic given
/// `seed`. Theorem VI.3: O(n) energy, O(log^2 n) depth, O(sqrt n) distance
/// w.h.p.; the fallback path costs one 2-D Mergesort and triggers with
/// probability at most 2 n^{-c/6}.
template <class T, class Less = std::less<T>>
[[nodiscard]] SelectResult<T> select_rank(Machine& m,
                                          const GridArray<T>& input,
                                          index_t k, std::uint64_t seed,
                                          Less less = Less{},
                                          const SelectConfig& config = {}) {
  const index_t n = input.size();
  assert(k >= 1 && k <= n);
  assert(config.c >= 3.0);
  static const PhaseId kPhase = PhaseRegistry::instance().intern("select_rank");
  Machine::PhaseScope scope(m, kPhase);
  using E = WithId<T>;
  const TotalLess<Less> total{less};

  // Lay the elements out in Z-order on the canonical square, tagged with
  // unique ids so ranks are distinct.
  GridArray<E> tagged = attach_ids(m, input);
  GridArray<E> el =
      route_permutation(m, tagged, square_at(input.region().origin(),
                                             square_side_for(n)),
                        Layout::kZOrder);

  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  const double c = config.c;
  const double log_n = std::log(std::max<index_t>(n, 3));
  const auto threshold =
      static_cast<index_t>(c * std::sqrt(static_cast<double>(n)));

  std::vector<char> active(static_cast<size_t>(n), 1);
  index_t big_n = n;       // N: number of active elements
  index_t cur_k = k;       // rank within the active multiset
  bool flipped = false;    // order reversal (step 7)
  index_t iterations = 0;

  // W.l.o.g. k <= ceil(N/2): select the rank N + 1 - k element under the
  // reversed order (Section VI, introduction).
  if (cur_k > (big_n + 1) / 2) {
    cur_k = big_n + 1 - cur_k;
    flipped = true;
  }

  // Flip-aware comparison of raw elements.
  auto flip_less = [&](const E& x, const E& y) {
    return flipped ? total(y, x) : total(x, y);
  };

  SelectResult<T> result{};
  while (big_n > threshold) {
    ++iterations;
    const double p =
        std::min(1.0, c / std::sqrt(static_cast<double>(big_n)));

    // Step 1: Bernoulli sampling (a local decision at each processor).
    std::vector<char> sampled(static_cast<size_t>(n), 0);
    index_t sample_size = 0;
    for (index_t i = 0; i < n; ++i) {
      if (active[static_cast<size_t>(i)] && unif(rng) < p) {
        sampled[static_cast<size_t>(i)] = 1;
        ++sample_size;
      }
      m.op();
    }
    if (sample_size == 0) continue;  // resample (w.h.p. never for real n)

    // Step 2: gather the sample via scan + send.
    GridArray<E> sample = compact_flagged(m, el, sampled, sample_size);

    // Step 3: sort the sample with Bitonic Sort, pick the two pivots.
    GridArray<E> sorted = bitonic_sort_any(
        m, sample, [&](const E& x, const E& y) { return flip_less(x, y); });
    const double nd = static_cast<double>(big_n);
    const double spread = (c / 2.0) * std::pow(nd, 0.25) * std::sqrt(log_n);
    const double mid = c * static_cast<double>(cur_k) / std::sqrt(nd);
    const index_t r = std::min<index_t>(
        sample_size, std::max<index_t>(1, std::llround(mid + spread)));
    const bool has_low =
        static_cast<double>(cur_k) >= 0.5 * std::pow(nd, 0.75) *
                                          std::sqrt(log_n);
    const index_t l =
        has_low ? std::max<index_t>(1, std::llround(mid - spread)) : 0;
    const Cell<E>& upper = sorted[r - 1];
    const Cell<E>* lower = (has_low && l >= 1 && l <= r) ? &sorted[l - 1]
                                                         : nullptr;

    // Step 4: broadcast the pivots over the whole subgrid.
    Clock pivots_ready = upper.clock;
    if (lower != nullptr) {
      pivots_ready = Clock::join(pivots_ready, lower->clock);
    }
    const Clock at_origin =
        m.send(sorted.coord(r - 1), el.region().origin(), pivots_ready);
    const BroadcastTree& pivot_bcast =
        broadcast_tree(m, el.region(), at_origin);
    auto ctrl_at = [&](index_t i) {
      const Coord cd = el.coord(i);
      const Rect& reg = el.region();
      return pivot_bcast.arrival(at_origin, cd.row - reg.row0,
                                 cd.col - reg.col0);
    };

    // Step 5: count actives below s_l / above s_r with an all-reduce.
    struct Counts {
      index_t below{0};
      index_t above{0};
    };
    struct AddCounts {
      Counts operator()(const Counts& a, const Counts& b) const {
        return Counts{a.below + b.below, a.above + b.above};
      }
    };
    GridArray<Counts> cnt(el.region(), Layout::kZOrder, n);
    for (index_t i = 0; i < n; ++i) {
      Counts v{};
      if (active[static_cast<size_t>(i)]) {
        if (lower != nullptr && flip_less(el[i].value, lower->value)) {
          v.below = 1;
        }
        if (flip_less(upper.value, el[i].value)) v.above = 1;
      }
      cnt[i] = Cell<Counts>{v, Clock::join(el[i].clock, ctrl_at(i))};
      m.op();
    }
    const GridArray<Counts> totals = all_reduce(m, cnt, AddCounts{});
    const index_t below = totals[0].value.below;
    const index_t above = totals[0].value.above;

    if (below >= cur_k || above >= big_n - cur_k) {
      // Bad event (Lemma VI.1): fall back to sorting everything.
      result.fell_back = true;
      break;
    }
    cur_k -= below;

    // Step 6: deactivate elements outside (s_l, s_r).
    index_t new_n = 0;
    for (index_t i = 0; i < n; ++i) {
      if (!active[static_cast<size_t>(i)]) continue;
      const bool out_low =
          lower != nullptr && flip_less(el[i].value, lower->value);
      const bool out_high = flip_less(upper.value, el[i].value);
      if (out_low || out_high) {
        active[static_cast<size_t>(i)] = 0;
      } else {
        ++new_n;
      }
      // The deactivation decision depends on the pivot broadcast.
      el[i].clock = Clock::join(el[i].clock, ctrl_at(i));
      m.op();
    }

    // Step 7: recount (an all-reduce in the model; the count is already
    // part of `totals`' information flow) and flip if k passed the middle.
    big_n = new_n;
    if (cur_k > (big_n + 1) / 2) {
      // 1-based rank r ascending equals rank N + 1 - r descending.
      cur_k = big_n + 1 - cur_k;
      flipped = !flipped;
    }
  }

  if (result.fell_back) {
    // Sort the active survivors with the energy-optimal 2-D Mergesort and
    // read off the answer (Section VI step 5).
    index_t live = 0;
    for (char f : active) live += f;
    GridArray<E> compact = compact_flagged(m, el, active, live);
    GridArray<E> sorted = mergesort2d(
        m, compact, [&](const E& x, const E& y) { return flip_less(x, y); });
    result.value = sorted[cur_k - 1].value.value;
    result.iterations = iterations;
    return result;
  }

  // Final phase: gather the <= c*sqrt(n) survivors and sort them.
  index_t live = 0;
  for (char f : active) live += f;
  assert(live >= 1 && cur_k >= 1 && cur_k <= live);
  GridArray<E> survivors = compact_flagged(m, el, active, live);
  GridArray<E> sorted = bitonic_sort_any(
      m, survivors, [&](const E& x, const E& y) { return flip_less(x, y); });
  result.value = sorted[cur_k - 1].value.value;
  result.iterations = iterations;
  return result;
}

/// Convenience median: the rank-ceil(n/2) element.
template <class T, class Less = std::less<T>>
[[nodiscard]] SelectResult<T> select_median(Machine& m,
                                            const GridArray<T>& input,
                                            std::uint64_t seed,
                                            Less less = Less{}) {
  return select_rank(m, input, (input.size() + 1) / 2, seed, less);
}

/// The k smallest elements under `less`, sorted, on a compact square at
/// the input's origin — the GNN sort-pooling primitive (Section I): rank
/// selection finds the threshold in O(n) energy, compaction gathers the
/// survivors, and a Bitonic Sort orders the k-element result. Much
/// cheaper than a full sort when k = O(sqrt n): O(n + k^{3/2} log k)
/// energy, poly-log depth.
template <class T, class Less = std::less<T>>
[[nodiscard]] GridArray<T> top_k(Machine& m, const GridArray<T>& input,
                                 index_t k, std::uint64_t seed,
                                 Less less = Less{}) {
  assert(k >= 0 && k <= input.size());
  static const PhaseId kPhase = PhaseRegistry::instance().intern("top_k");
  Machine::PhaseScope scope(m, kPhase);
  if (k == 0) {
    return GridArray<T>(Rect{input.region().row0, input.region().col0, 1, 1},
                        Layout::kZOrder, 0);
  }
  using E = WithId<T>;
  const TotalLess<Less> total{less};
  GridArray<E> tagged = attach_ids(m, input);

  // Threshold = the rank-k element under the induced total order.
  const SelectResult<E> pivot =
      select_rank(m, tagged, k, seed,
                  [&](const E& a, const E& b) { return total(a, b); });

  // Keep everything at or below the threshold — exactly k elements by
  // rank uniqueness — then sort the survivors.
  std::vector<char> keep(static_cast<size_t>(tagged.size()), 0);
  index_t kept = 0;
  for (index_t i = 0; i < tagged.size(); ++i) {
    m.op();
    if (!total(pivot.value, tagged[i].value)) {
      keep[static_cast<size_t>(i)] = 1;
      ++kept;
    }
  }
  assert(kept == k);
  GridArray<E> survivors = compact_flagged(m, tagged, keep, kept);
  GridArray<E> sorted = bitonic_sort_any(
      m, survivors, [&](const E& a, const E& b) { return total(a, b); });
  return detach_ids(m, sorted);
}

}  // namespace scm
