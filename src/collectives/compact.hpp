// Stream compaction on the spatial grid: gathers the flagged elements of
// an array into a dense Z-order square using a scan to assign slots — the
// "scan to assign each sampled element an index" pattern of Section VI
// step 2, exposed as a reusable collective.
//
// Costs: one energy-optimal scan plus one direct message per surviving
// element — O(n) energy, O(log n) depth, O(sqrt n) distance.
#pragma once

#include "collectives/scan.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/phase.hpp"

#include <cassert>
#include <vector>

namespace scm {

/// Compacts the elements of `a` whose flag is set into a Z-order square at
/// `a`'s region origin, preserving order. `flags` is indexed like `a`;
/// `count` must equal the number of set flags. Each gathered element's
/// clock joins the scan result that told it its slot.
template <class T>
[[nodiscard]] GridArray<T> compact_flagged(Machine& m, const GridArray<T>& a,
                                           const std::vector<char>& flags,
                                           index_t count) {
  assert(static_cast<index_t>(flags.size()) == a.size());
  static const PhaseId kPhase =
      PhaseRegistry::instance().intern("compact_flagged");
  Machine::PhaseScope scope(m, kPhase);
  GridArray<index_t> indicator(a.region(), Layout::kZOrder, a.size(),
                               a.offset());
  for (index_t i = 0; i < a.size(); ++i) {
    indicator[i] =
        Cell<index_t>{flags[static_cast<size_t>(i)] ? index_t{1} : index_t{0},
                      a[i].clock};
    m.op();
  }
  GridArray<index_t> slots = scan(m, indicator, Plus{});
  GridArray<T> out = GridArray<T>::on_square(a.region().origin(), count);
  for (index_t i = 0; i < a.size(); ++i) {
    if (!flags[static_cast<size_t>(i)]) continue;
    const index_t slot = slots[i].value - 1;
    assert(slot >= 0 && slot < count);
    const Clock ready = Clock::join(a[i].clock, slots[i].clock);
    out[slot] = Cell<T>{a[i].value, m.send(a.coord(i), out.coord(slot), ready)};
  }
  return out;
}

/// Compacts with a host-evaluated predicate over the element values (a
/// local decision at each processor).
template <class T, class Pred>
[[nodiscard]] GridArray<T> compact_if(Machine& m, const GridArray<T>& a,
                                      Pred pred) {
  std::vector<char> flags(static_cast<size_t>(a.size()), 0);
  index_t count = 0;
  for (index_t i = 0; i < a.size(); ++i) {
    m.op();
    if (pred(a[i].value)) {
      flags[static_cast<size_t>(i)] = 1;
      ++count;
    }
  }
  return compact_flagged(m, a, flags, count);
}

}  // namespace scm
