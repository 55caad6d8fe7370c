// Histogramming / counting by key on the spatial grid — a derived
// primitive built from the paper's building blocks, following the same
// sort -> segment-leaders -> segmented-scan pipeline as the SpMV
// (Section VIII): sort the keys, count each run with a segmented (+)-scan
// over ones, and deliver (key, count) pairs to a bucket grid.
//
// Costs: one 2-D Mergesort + one scan + one message per distinct key:
// O(n^{3/2}) energy, O(log^3 n) depth, O(sqrt n) distance.
#pragma once

#include "collectives/scan.hpp"
#include "sort/mergesort2d.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/phase.hpp"

#include <cassert>
#include <vector>

namespace scm {

/// Computes the histogram of integer keys in [0, buckets): bucket b of the
/// returned row-major array holds the number of occurrences of key b,
/// delivered to a bucket subgrid right of the input's region.
[[nodiscard]] inline GridArray<index_t> histogram(
    Machine& m, const GridArray<index_t>& keys, index_t buckets) {
  static const PhaseId kPhase = PhaseRegistry::instance().intern("histogram");
  Machine::PhaseScope scope(m, kPhase);
  const index_t n = keys.size();
  const Rect bucket_rect =
      square_at({keys.region().row0,
                 keys.region().col0 + keys.region().cols},
                square_side_for(std::max<index_t>(buckets, 1)));
  GridArray<index_t> counts(bucket_rect, Layout::kRowMajor, buckets);
  for (index_t b = 0; b < buckets; ++b) counts[b].value = 0;
  if (n == 0) return counts;

#ifndef NDEBUG
  for (index_t i = 0; i < n; ++i) {
    assert(keys[i].value >= 0 && keys[i].value < buckets);
  }
#endif

  // Sort the keys (stable, distinct ranks via ids internally).
  GridArray<index_t> sorted = mergesort2d(m, keys);

  // Segment heads via simultaneous neighbour hand-offs.
  std::vector<char> head(static_cast<size_t>(n), 0);
  std::vector<Clock> before(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) before[static_cast<size_t>(i)] =
      sorted[i].clock;
  for (index_t i = 0; i < n; ++i) {
    if (i == 0) {
      head[0] = 1;
      continue;
    }
    const Clock arrived = m.send(sorted.coord(i - 1), sorted.coord(i),
                                 before[static_cast<size_t>(i - 1)]);
    sorted[i].clock = Clock::join(sorted[i].clock, arrived);
    m.op();
    head[static_cast<size_t>(i)] =
        sorted[i].value != sorted[i - 1].value ? 1 : 0;
  }

  // Segmented count: scan ones per segment; the run's last element holds
  // the count and delivers (key, count) to its bucket.
  GridArray<index_t> z =
      route_permutation(m, sorted, sorted.region(), Layout::kZOrder);
  GridArray<Seg<index_t>> ones(z.region(), Layout::kZOrder, n);
  for (index_t i = 0; i < n; ++i) {
    ones[i] = Cell<Seg<index_t>>{Seg<index_t>{1, head[static_cast<size_t>(i)] != 0},
                                 z[i].clock};
    m.op();
  }
  GridArray<Seg<index_t>> run = segmented_scan(m, ones, Plus{});
  for (index_t i = 0; i < n; ++i) {
    const bool last = i + 1 == n || head[static_cast<size_t>(i + 1)] != 0;
    if (!last) continue;
    const index_t key = z[i].value;
    counts[key] = Cell<index_t>{
        run[i].value.value,
        m.send(z.coord(i), counts.coord(key), run[i].clock)};
  }
  return counts;
}

/// Counting sort for integer keys in [0, buckets): sorts via the histogram
/// pipeline's stable mergesort (the histogram itself is the by-product
/// most callers want; the sort result is returned for completeness).
[[nodiscard]] inline GridArray<index_t> counting_sort(
    Machine& m, const GridArray<index_t>& keys, index_t buckets) {
  static const PhaseId kPhase =
      PhaseRegistry::instance().intern("counting_sort");
  Machine::PhaseScope scope(m, kPhase);
#ifndef NDEBUG
  for (index_t i = 0; i < keys.size(); ++i) {
    assert(keys[i].value >= 0 && keys[i].value < buckets);
  }
#else
  (void)buckets;
#endif
  return mergesort2d(m, keys);
}

}  // namespace scm
