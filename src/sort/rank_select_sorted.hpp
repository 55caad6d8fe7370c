// Rank selection in two sorted arrays (Section V-C-c, Lemma V.6) — the
// multiselection subroutine of the 2-D merge.
//
// Given sorted arrays A and B and a rank k (1-based, within |A|+|B|), it
// finds the split (a_count, b_count) with a_count + b_count = k such that
// A[0, a_count) and B[0, b_count) are exactly the k smallest elements of
// the union:
//   1. sample every floor(sqrt(n))-th element of A and of B;
//   2. All-Pairs Sort the sample (once, shared by every requested rank —
//      the deterministic *multiselect* of Lemma V.6);
//   3. per rank k: l = floor((k-1) / floor(sqrt(n)));
//   4. the l-th ranked sample element is the pivot; walking binary
//      searches locate its predecessor counts a and b in A and B;
//   5. the rank-(k-a-b) element lies within the next <= 3 sqrt(n)
//      elements of each array; a walking binary search over the two
//      window boundaries finds the exact split (no second All-Pairs
//      Sort — the window stays in place, only an O(1)-word coordinator
//      travels).
//
// Costs: O(n^{5/4}) energy, O(log n) depth, O(sqrt n) distance —
// dominated by the All-Pairs Sort of the O(sqrt n)-sized sample
// (Lemma V.6); the sample gather is O(n) energy and the per-rank
// searches are O(sqrt(n) log n). Sharing the sample sort across the
// three merge ranks (multiselect) keeps the merge recursion at
// Lemma V.7's O(n^{3/2}) total.
//
// `less` must be a strict TOTAL order over T (wrap with WithId/TotalLess).
#pragma once

#include "sort/allpairs.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/phase.hpp"

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

namespace scm {

/// Result of a rank-selection over two sorted arrays: the k smallest
/// elements of the union are A[0, a_count) together with B[0, b_count).
/// `clock` is the readiness of this decision at the work origin.
struct SplitResult {
  index_t a_count{0};
  index_t b_count{0};
  Clock clock{};
};

namespace detail {

/// Walking binary search counting the elements of the sorted array `arr`
/// that are <= pivot. The pivot value *travels* from probe to probe rather
/// than round-tripping to its home processor: consecutive midpoints are a
/// geometrically shrinking index distance apart, so on a Z-order (or
/// row-major) layout the probe path's total Manhattan length is a
/// geometric series — O(sqrt n) distance and energy, O(log n) depth. (The
/// paper notes that a naive binary search subroutine would be
/// distance-suboptimal; the walking form avoids that.) The count finally
/// returns to `home`.
struct CountResult {
  index_t count{0};
  Clock clock{};
};

template <class T, class Less>
CountResult count_leq(Machine& m, const GridArray<T>& arr, const T& pivot,
                      Clock pivot_clock, Coord home, Less less) {
  index_t lo = 0;
  index_t hi = arr.size();
  Clock clock = pivot_clock;
  Coord at = home;
  while (lo < hi) {
    const index_t mid = lo + (hi - lo) / 2;
    const Coord probe = arr.coord(mid);
    clock = m.send(at, probe, clock);
    clock = Clock::join(clock, arr[mid].clock);
    at = probe;
    m.op();
    if (less(pivot, arr[mid].value)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  clock = m.send(at, home, clock);
  return {lo, clock};
}

/// An element annotated with its source array (0 = A, 1 = B) and index, so
/// the selected pivot can be traced back to a split position.
template <class T>
struct SampleElem {
  T value{};
  int src{0};
  index_t idx{0};
};

template <class Less>
struct SampleLess {
  Less less{};
  template <class T>
  bool operator()(const SampleElem<T>& a, const SampleElem<T>& b) const {
    return less(a.value, b.value);
  }
};

/// Gathers elements of `arr` at the given indices into a Z-order square at
/// `work_origin` as one bulk batch: distinct source cells feed distinct
/// destination slots, so the batch is self-independent.
template <class T>
GridArray<SampleElem<T>> gather_indexed(Machine& m, const GridArray<T>& a,
                                        const GridArray<T>& b,
                                        const std::vector<index_t>& a_idx,
                                        const std::vector<index_t>& b_idx,
                                        Coord work_origin) {
  const index_t total =
      static_cast<index_t>(a_idx.size() + b_idx.size());
  GridArray<SampleElem<T>> out =
      GridArray<SampleElem<T>>::on_square(work_origin, total);
  std::vector<MessageEvent> batch;
  batch.reserve(static_cast<size_t>(total));
  index_t slot = 0;
  auto stage = [&](const GridArray<T>& src, int tag,
                   const std::vector<index_t>& idx) {
    for (index_t i : idx) {
      batch.push_back(MessageEvent{src.coord(i), out.coord(slot), 0,
                                   src[i].clock, Clock{}});
      out[slot] = Cell<SampleElem<T>>{SampleElem<T>{src[i].value, tag, i},
                                      Clock{}};
      ++slot;
    }
  };
  stage(a, 0, a_idx);
  stage(b, 1, b_idx);
  m.send_bulk(batch);  // bulk-ok: caller holds the phase scope
  for (index_t i = 0; i < total; ++i) {
    out[i].clock = batch[static_cast<size_t>(i)].arrival;
  }
  return out;
}

/// Finds the split of the sorted suffixes A[a_lo, |A|) and B[b_lo, |B|)
/// whose first x and r-x elements are exactly the r smallest of the two
/// suffixes' union. Instead of gathering and All-Pairs-Sorting a window
/// (whose (6 sqrt n)^{5/2} cost dominated the whole merge), an O(1)-word
/// coordinator walks a binary search over x, probing only the four
/// boundary cells A[a_lo+x-1], A[a_lo+x], B[b_lo+y-1], B[b_lo+y] per
/// iteration: O(log r) probes of O(sqrt n) Manhattan length each. Under a
/// strict total order the valid split is unique, so the search always
/// lands. The decision finally travels to `home`.
struct WindowSplit {
  index_t x{0};
  Clock clock{};
};

template <class T, class Less>
WindowSplit split_suffixes(Machine& m, const GridArray<T>& a, index_t a_lo,
                           const GridArray<T>& b, index_t b_lo, index_t r,
                           Clock clock, Coord at, Coord home, Less less) {
  const index_t sa = a.size() - a_lo;
  const index_t sb = b.size() - b_lo;
  assert(r >= 1 && r <= sa + sb);
  index_t lo = sb < r ? r - sb : 0;
  index_t hi = std::min(r, sa);
  auto visit = [&](const GridArray<T>& arr, index_t i) -> const T& {
    const Coord probe = arr.coord(i);
    clock = m.send(at, probe, clock);
    clock = Clock::join(clock, arr[i].clock);
    at = probe;
    return arr[i].value;
  };
  index_t x = lo;
  for (;;) {
    x = lo + (hi - lo) / 2;
    const index_t y = r - x;
    if (x < sa && y >= 1) {
      // Smallest untaken of A vs. largest taken of B: if A[a_lo+x] is
      // still below B's last taken element, x is too small.
      const T& a_untaken = visit(a, a_lo + x);
      const T& b_taken = visit(b, b_lo + y - 1);
      m.op();
      if (less(a_untaken, b_taken)) {
        lo = x + 1;
        continue;
      }
    }
    if (x >= 1 && y < sb) {
      // Smallest untaken of B vs. largest taken of A: symmetric.
      const T& b_untaken = visit(b, b_lo + y);
      const T& a_taken = visit(a, a_lo + x - 1);
      m.op();
      if (less(b_untaken, a_taken)) {
        hi = x - 1;
        continue;
      }
    }
    break;  // every taken element precedes every untaken one: valid split
  }
  clock = m.send(at, home, clock);
  return WindowSplit{x, clock};
}

}  // namespace detail

/// Deterministic multiselect (Lemma V.6): selects the split of two sorted
/// arrays at *each* rank of `ks` while paying for one sample gather and
/// one sample All-Pairs Sort, shared by all ranks. Each k is 1-based in
/// [0, |A|+|B|] (k = 0 gives the empty split). Degenerate ranks (k = 0,
/// k = n) and degenerate inputs (|A| = 0 or |B| = 0, where the split is
/// forced) are resolved host-side for free. Sample gathering and sorting
/// happen on a square overlay at `work_origin`, which callers place at
/// the merge region's corner.
template <class T, class Less>
[[nodiscard]] std::vector<SplitResult> multiselect_two_sorted(
    Machine& m, const GridArray<T>& a, const GridArray<T>& b,
    std::span<const index_t> ks, Coord work_origin, Less less) {
  const index_t na = a.size();
  const index_t nb = b.size();
  const index_t n = na + nb;
  std::vector<SplitResult> results(ks.size());
  std::vector<size_t> pending;
  for (size_t j = 0; j < ks.size(); ++j) {
    const index_t k = ks[j];
    assert(k >= 0 && k <= n);
    if (k == 0) {
      results[j] = SplitResult{0, 0, Clock{}};
    } else if (k == n) {
      results[j] = SplitResult{na, nb, Clock{}};
    } else if (na == 0) {
      results[j] = SplitResult{0, k, Clock{}};
    } else if (nb == 0) {
      results[j] = SplitResult{k, 0, Clock{}};
    } else {
      pending.push_back(j);
    }
  }
  if (pending.empty()) return results;
  static const PhaseId kPhase =
      PhaseRegistry::instance().intern("rank_select_two_sorted");
  Machine::PhaseScope scope(m, kPhase);

  // Any Theta(sqrt n) spacing realizes Lemma V.6; doubling it halves the
  // sample, and the sample sort's m^{5/2} scratch-area term shrinks by
  // ~5.7x while the per-rank window merely doubles (still O(sqrt n), and
  // the window search below is logarithmic in its width anyway).
  const index_t step = std::max<index_t>(1, 2 * isqrt(n));

  // Step 1: deterministic every-step-th sampling of both arrays (index 0
  // included, so the sample is never empty on a non-empty array). One
  // gather, shared by every rank.
  std::vector<index_t> a_samples;
  std::vector<index_t> b_samples;
  for (index_t i = 0; i * step < na; ++i) a_samples.push_back(i * step);
  for (index_t i = 0; i * step < nb; ++i) b_samples.push_back(i * step);
  GridArray<detail::SampleElem<T>> sample = detail::gather_indexed(
      m, a, b, a_samples, b_samples, work_origin);

  // Step 2: All-Pairs Sort the sample — once, for all ranks.
  GridArray<detail::SampleElem<T>> sorted =
      allpairs_sort(m, sample, detail::SampleLess<Less>{less});

  for (size_t j : pending) {
    const index_t k = ks[j];
    // Steps 3-4: pick the pivot and count its predecessors in A and B.
    // The clamp against sorted.size() is defensively unreachable: the
    // sample holds at least ceil(n / step) > (n - 1) / step >= l elements.
    const index_t l = std::min((k - 1) / step, sorted.size());
    index_t a_lo = 0;
    index_t b_lo = 0;
    Clock decision{};
    Coord at = work_origin;
    if (l >= 1) {
      const Cell<detail::SampleElem<T>>& pivot = sorted[l - 1];
      const Coord pivot_at = sorted.coord(l - 1);
      const auto ca = detail::count_leq(m, a, pivot.value.value, pivot.clock,
                                        pivot_at, less);
      const auto cb = detail::count_leq(m, b, pivot.value.value, pivot.clock,
                                        pivot_at, less);
      a_lo = ca.count;
      b_lo = cb.count;
      decision = Clock::join(ca.clock, cb.clock);
      at = pivot_at;
      assert(a_lo + b_lo <= k - 1);  // rank(pivot) <= k - 1 (Lemma V.6)
    }
    // rank(pivot) = a_lo + b_lo <= k - 1; with l samples at or below the
    // pivot the rank is at least (l-2)*step + 2, so the target lies within
    // the next <= 3*step elements of each array. (The paper states
    // 2*sqrt(n) for the case where both arrays contribute samples below
    // the pivot; one extra step covers the one-sided case, with the same
    // asymptotics.)
    const index_t remaining = k - a_lo - b_lo;
    assert(remaining >= 1 && remaining <= 3 * step);

    // Step 5: walking binary search over the window boundaries.
    const detail::WindowSplit split = detail::split_suffixes(
        m, a, a_lo, b, b_lo, remaining, decision, at, work_origin, less);
    SplitResult result{a_lo + split.x, k - (a_lo + split.x), split.clock};
    assert(result.a_count >= 0 && result.a_count <= na);
    assert(result.b_count >= 0 && result.b_count <= nb);
    results[j] = result;
  }
  return results;
}

/// Selects the rank-k split of two sorted arrays (Lemma V.6): the
/// single-rank form of `multiselect_two_sorted`, with the same costs.
template <class T, class Less>
[[nodiscard]] SplitResult rank_select_two_sorted(Machine& m,
                                                 const GridArray<T>& a,
                                                 const GridArray<T>& b,
                                                 index_t k, Coord work_origin,
                                                 Less less) {
  const index_t ks[1] = {k};
  return multiselect_two_sorted(m, a, b, std::span<const index_t>(ks),
                                work_origin, less)[0];
}

}  // namespace scm
