// Arrays distributed over a processor subgrid, one element per processor.
//
// The paper's algorithms operate on arrays stored on rectangular subgrids
// in one of two element orders:
//   * RowMajor — the i-th element lives at (i / cols, i % cols);
//   * ZOrder   — the i-th element lives at the i-th position of the Morton
//                curve of a square power-of-two subgrid (Section III).
//
// Each element carries its critical-path Clock; moving elements between
// arrays (or within one) goes through Machine::send so costs are charged.
#pragma once

#include "spatial/clock.hpp"
#include "spatial/geometry.hpp"
#include "spatial/machine.hpp"
#include "spatial/zorder.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <span>
#include <utility>
#include <vector>

namespace scm {

/// Element order of a GridArray on its subgrid.
enum class Layout { kRowMajor, kZOrder };

/// A value held by one processor together with its critical-path clock.
template <class T>
struct Cell {
  T value{};
  Clock clock{};
};

/// An n-element array distributed over a processor subgrid, one element per
/// processor, in the given layout order. `n` may be smaller than the
/// subgrid (trailing processors hold no element), and the array may start
/// at a non-zero offset of the layout order: element i lives at layout
/// position offset + i of the region. Offset ranges of a common parent
/// square's Z-order are how the 2-D merge recursion (Section V-C) addresses
/// its quadrant sub-ranges.
template <class T>
class GridArray {
 public:
  /// An empty array of `n` default-constructed elements on `region`.
  GridArray(Rect region, Layout layout, index_t n, index_t offset = 0)
      : region_(region),
        layout_(layout),
        offset_(offset),
        cells_(static_cast<size_t>(n)) {
    assert(n >= 0 && offset >= 0 && offset + n <= region.size());
    // A Z-order region must be a power-of-two square — except that an
    // empty array never decodes a Morton position, so any region
    // (including a degenerate 0 x 0 one) is fine for n == 0.
    assert(n == 0 || layout != Layout::kZOrder ||
           (region.square() && is_pow2(region.rows)));
  }

  /// The canonical array for `n` elements: a sqrt(n) x sqrt(n) (rounded up
  /// to a power of two) square at `origin` in the given layout.
  static GridArray on_square(Coord origin, index_t n,
                             Layout layout = Layout::kZOrder) {
    return GridArray(square_at(origin, square_side_for(n)), layout, n);
  }

  /// Builds an array from host values with zero clocks (the values are the
  /// algorithm's input, already resident at their processors).
  static GridArray from_values(Rect region, Layout layout,
                               const std::vector<T>& values) {
    GridArray out(region, layout, static_cast<index_t>(values.size()));
    for (size_t i = 0; i < values.size(); ++i) out.cells_[i].value = values[i];
    return out;
  }

  /// As from_values, on the canonical square subgrid at `origin`.
  static GridArray from_values_square(Coord origin,
                                      const std::vector<T>& values,
                                      Layout layout = Layout::kZOrder) {
    GridArray out =
        on_square(origin, static_cast<index_t>(values.size()), layout);
    for (size_t i = 0; i < values.size(); ++i) out.cells_[i].value = values[i];
    return out;
  }

  [[nodiscard]] index_t size() const {
    return static_cast<index_t>(cells_.size());
  }
  [[nodiscard]] bool empty() const { return cells_.empty(); }
  [[nodiscard]] const Rect& region() const { return region_; }
  [[nodiscard]] Layout layout() const { return layout_; }

  /// Layout position of element 0 within the region's traversal order.
  [[nodiscard]] index_t offset() const { return offset_; }

  /// Coordinate of the processor holding element i: an array load once
  /// coords() has built the cache, otherwise computed on the fly.
  [[nodiscard]] Coord coord(index_t i) const {
    assert(i >= 0 && i < size());
    if (!coords_.empty()) return coords_[static_cast<size_t>(i)];
    return compute_coord(offset_ + i);
  }

  /// Every element's coordinate, lazily computed once and cached for the
  /// array's lifetime (the placement is immutable after construction).
  /// This is a host-side simulator cache — 16 bytes per element on the
  /// simulating machine, not storage charged to the model's O(1)-memory
  /// processors. Bulk routines force it so their inner loops do array
  /// loads instead of per-element Morton decodes. The cache is built by
  /// walking the layout rather than decoding every position: a Z-order
  /// array decodes once per aligned 256-position block and ORs in the
  /// block-local offset from a table (the bits are disjoint); a row-major
  /// array divides once at `offset_` and steps row and column.
  [[nodiscard]] std::span<const Coord> coords() const {
    if (coords_.empty() && !cells_.empty()) {
      coords_.reserve(cells_.size());
      const index_t end = offset_ + size();
      if (layout_ == Layout::kRowMajor) {
        index_t r = offset_ / region_.cols;
        index_t c = offset_ % region_.cols;
        for (index_t pos = offset_; pos < end; ++pos) {
          coords_.push_back(Coord{region_.row0 + r, region_.col0 + c});
          if (++c == region_.cols) {
            c = 0;
            ++r;
          }
        }
      } else {
        const std::array<Offset2D, kBlock>& low = block_offsets();
        for (index_t pos = offset_; pos < end;) {
          const index_t block = pos & ~(kBlock - 1);
          const Offset2D high = zorder_decode(block);
          const index_t stop = std::min(end, block + kBlock);
          for (; pos < stop; ++pos) {
            const Offset2D lo = low[static_cast<size_t>(pos - block)];
            coords_.push_back(Coord{region_.row0 + (high.row | lo.row),
                                    region_.col0 + (high.col | lo.col)});
          }
        }
      }
    }
    return coords_;
  }

  [[nodiscard]] Cell<T>& operator[](index_t i) {
    assert(i >= 0 && i < size());
    return cells_[static_cast<size_t>(i)];
  }
  [[nodiscard]] const Cell<T>& operator[](index_t i) const {
    assert(i >= 0 && i < size());
    return cells_[static_cast<size_t>(i)];
  }

  /// Host-side copy of the element values (for verification / output).
  [[nodiscard]] std::vector<T> values() const {
    std::vector<T> out;
    out.reserve(cells_.size());
    for (const Cell<T>& c : cells_) out.push_back(c.value);
    return out;
  }

  /// Largest clock over all elements (the array's readiness time).
  [[nodiscard]] Clock max_clock() const {
    Clock c{};
    for (const Cell<T>& cell : cells_) c = Clock::join(c, cell.clock);
    return c;
  }

  /// Announces every element as a resident value to `m`'s trace sinks
  /// (Machine::birth). Input arrays materialise on the grid without
  /// messages; announcing them lets residency accounting (the conformance
  /// checker) see the placement explicitly.
  void announce(Machine& m) const {
    if (empty()) return;
    // bulk-ok: coords() is a span over this array's own cached storage
    const std::span<const Coord> at = coords();
    std::vector<BirthEvent> batch(cells_.size());
    for (size_t i = 0; i < cells_.size(); ++i) {
      batch[i] = BirthEvent{at[i], cells_[i].clock};
    }
    m.birth_bulk(batch);  // bulk-ok: attributed to the caller's phase
  }

  /// Announces every element as retired (Machine::death): the array's
  /// processors no longer hold its values. Sending from a retired cell is
  /// a conformance violation until a new value arrives there.
  void retire(Machine& m) const {
    if (empty()) return;
    m.death_bulk(coords());  // bulk-ok: attributed to the caller's phase
  }

 private:
  // Z-order positions per coords() block: a power of 4, so the low bits
  // hold whole (row, column) bit pairs and a position's decoded offset is
  // its block base's offset ORed with that of its low bits.
  static constexpr index_t kBlock = 256;

  // zorder_decode(z) for every z in [0, kBlock).
  static const std::array<Offset2D, kBlock>& block_offsets() {
    static const std::array<Offset2D, kBlock> table = [] {
      std::array<Offset2D, kBlock> t{};
      for (index_t z = 0; z < kBlock; ++z) {
        t[static_cast<size_t>(z)] = zorder_decode(z);
      }
      return t;
    }();
    return table;
  }

  Coord compute_coord(index_t pos) const {
    if (layout_ == Layout::kRowMajor) {
      return region_.at(pos / region_.cols, pos % region_.cols);
    }
    return zorder_coord(region_, pos);
  }

  Rect region_;
  Layout layout_;
  index_t offset_{0};
  std::vector<Cell<T>> cells_;
  mutable std::vector<Coord> coords_;
};

/// Sends element `i` of `src` to slot `j` of `dst`, charging the message
/// and propagating the clock. Source and destination may be the same array.
template <class T>
void send_element(Machine& m, const GridArray<T>& src, index_t i,
                  GridArray<T>& dst, index_t j) {
  const Cell<T>& from = src[i];
  dst[j] = Cell<T>{from.value, m.send(src.coord(i), dst.coord(j), from.clock)};
}

/// Bulk form of send_element: performs every (src index, dst index) move
/// of `moves` as one Machine::send_bulk batch. All source cells are read
/// before any destination cell is written, so the moves behave as a
/// parallel gather-then-scatter even when src and dst alias.
template <class T>
void send_elements(Machine& m, const GridArray<T>& src, GridArray<T>& dst,
                   std::span<const std::pair<index_t, index_t>> moves) {
  if (moves.empty()) return;
  std::vector<MessageEvent> batch(moves.size());
  std::vector<T> values(moves.size());
  for (size_t k = 0; k < moves.size(); ++k) {
    const auto [i, j] = moves[k];
    const Cell<T>& cell = src[i];
    batch[k] = MessageEvent{src.coord(i), dst.coord(j), 0, cell.clock, {}};
    values[k] = cell.value;
  }
  m.send_bulk(batch);  // bulk-ok: caller holds the phase scope
  for (size_t k = 0; k < moves.size(); ++k) {
    dst[moves[k].second] = Cell<T>{std::move(values[k]), batch[k].arrival};
  }
}

/// Routes every element of `src` directly to its position in a fresh array
/// with the given region/layout (a direct permutation: one message per
/// element, as used for the Z-order -> row-major step of the 2-D merge),
/// charged as a single send_bulk batch over the cached coordinate maps.
/// `perm[i]` gives the destination index of source element i; pass an
/// identity-sized empty vector for the identity routing.
template <class T>
GridArray<T> route_permutation(Machine& m, const GridArray<T>& src,
                               Rect dst_region, Layout dst_layout,
                               const std::vector<index_t>& perm = {}) {
  GridArray<T> dst(dst_region, dst_layout, src.size());
  if (src.empty()) return dst;
  assert(perm.empty() || perm.size() == static_cast<size_t>(src.size()));
  const std::span<const Coord> from = src.coords();
  const std::span<const Coord> to = dst.coords();
  std::vector<MessageEvent> batch(static_cast<size_t>(src.size()));
  for (index_t i = 0; i < src.size(); ++i) {
    const index_t j = perm.empty() ? i : perm[static_cast<size_t>(i)];
    batch[static_cast<size_t>(i)] =
        MessageEvent{from[static_cast<size_t>(i)], to[static_cast<size_t>(j)],
                     0, src[i].clock, Clock{}};
  }
  m.send_bulk(batch);  // bulk-ok: caller holds the phase scope
  for (index_t i = 0; i < src.size(); ++i) {
    const index_t j = perm.empty() ? i : perm[static_cast<size_t>(i)];
    dst[j] = Cell<T>{src[i].value, batch[static_cast<size_t>(i)].arrival};
  }
  return dst;
}

}  // namespace scm
