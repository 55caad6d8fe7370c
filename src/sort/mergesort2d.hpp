// Energy-optimal 2-D Mergesort (Section V-C, Theorem V.8).
//
// Recursively sorts the four quadrants of the subgrid, merges the two top
// quadrants, merges the two bottom quadrants, then merges the two results
// (all with the 2-D merge of Lemma V.7). The recursion operates on aligned
// Z-order ranges of one parent square; the final result is permuted from
// Z-order into row-major order (Fig. 3(d)).
//
// Costs (Theorem V.8): O(n^{3/2}) energy — matching the permutation lower
// bound of Corollary V.2, so the algorithm is energy-optimal — with
// O(log^3 n) depth and O(sqrt n) distance. The implementation achieves
// the energy shape: measured e / n^{3/2} is flat (~7-11, a power-of-4
// quantization sawtooth with no trend) and the fitted log-log exponent
// is ~1.51 over n in [48, 1024] — see BENCH_simulator.json and the
// certificate in testing/bounds.json. An earlier revision fitted ~1.94
// because every merge node ran three independent rank selections whose
// window All-Pairs-Sorts dominated; the Lemma V.6 multiselect fixed
// that. The sort is stable: elements are tagged with their input index
// and compared under the induced total order.
#pragma once

#include "sort/keyed.hpp"
#include "sort/merge2d.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/phase.hpp"

#include <cassert>
#include <functional>

namespace scm {

namespace detail {

/// Sorts the Z-order sub-range [offset, offset + count) of `arr` (counted
/// within a span of `span` aligned positions) and returns it as a sorted
/// Z-order range array.
template <class T, class Less>
GridArray<WithId<T>> mergesort_rec(Machine& m,
                                   const GridArray<WithId<T>>& arr,
                                   index_t offset, index_t span,
                                   index_t count, TotalLess<Less> less,
                                   const MergeConfig& config) {
  const Rect region = arr.region();
  using E = WithId<T>;
  if (count <= 0) return GridArray<E>(region, Layout::kZOrder, 0, offset);
  if (count <= config.base_size) {
    GridArray<E> slice(region, Layout::kZOrder, count, offset);
    for (index_t i = 0; i < count; ++i) slice[i] = arr[offset + i];
    return merge_base(m, {&slice}, region, offset, less);
  }
  const index_t quarter = span / 4;
  GridArray<E> parts[4] = {
      mergesort_rec(m, arr, offset, quarter,
                    std::min(count, quarter), less, config),
      mergesort_rec(m, arr, offset + quarter, quarter,
                    std::clamp<index_t>(count - quarter, 0, quarter), less,
                    config),
      mergesort_rec(m, arr, offset + 2 * quarter, quarter,
                    std::clamp<index_t>(count - 2 * quarter, 0, quarter),
                    less, config),
      mergesort_rec(m, arr, offset + 3 * quarter, quarter,
                    std::clamp<index_t>(count - 3 * quarter, 0, quarter),
                    less, config),
  };
  // Merge the two top quadrants, the two bottom quadrants, then the
  // results (Section V-C). The bottom merge lands right after the top one
  // so the final merge sees two contiguous sorted runs.
  const index_t top_n = parts[0].size() + parts[1].size();
  GridArray<E> top = merge2d(m, parts[0], parts[1], offset, less, config);
  GridArray<E> bottom =
      merge2d(m, parts[2], parts[3], offset + top_n, less, config);
  return merge2d(m, top, bottom, offset, less, config);
}

}  // namespace detail

/// Sorts `input` (any layout, any size) with the energy-optimal 2-D
/// Mergesort. Returns the sorted array in row-major order on the canonical
/// square at the input's region origin. Stable under `less`.
template <class T, class Less = std::less<T>>
[[nodiscard]] GridArray<T> mergesort2d(Machine& m, const GridArray<T>& input,
                                       Less less = Less{},
                                       const MergeConfig& config = {}) {
  static const PhaseId kPhase = PhaseRegistry::instance().intern("mergesort2d");
  Machine::PhaseScope scope(m, kPhase);
  const index_t n = input.size();
  const Coord origin = input.region().origin();
  if (n <= 1) {
    GridArray<T> out = GridArray<T>::on_square(origin, n, Layout::kRowMajor);
    if (n == 1) send_element(m, input, 0, out, 0);
    return out;
  }

  // Tag with ids (stability + distinct ranks), lay out in Z-order on the
  // canonical square.
  GridArray<WithId<T>> tagged = attach_ids(m, input);
  GridArray<WithId<T>> z = route_permutation(
      m, tagged, square_at(origin, square_side_for(n)), Layout::kZOrder);

  index_t span = 1;
  while (span < n) span *= 4;
  GridArray<WithId<T>> sorted = detail::mergesort_rec(
      m, z, 0, span, n, TotalLess<Less>{less}, config);

  // Fig. 3(d): permute from Z-order into row-major order.
  GridArray<WithId<T>> row_major = route_permutation(
      m, sorted, sorted.region(), Layout::kRowMajor);
  return detach_ids(m, row_major);
}

}  // namespace scm
