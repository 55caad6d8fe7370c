// Sparse per-cell tables for the route-unrolling trace sinks.
//
// LoadMap and CongestionMap bump one counter per unit hop of every routed
// message. A node-based hash map keyed by the cell pays a hash lookup (and
// a likely cache miss) on every hop. TileGrid instead stores fixed 64x64
// dense tiles keyed by (row >> 6, col >> 6) in one hash map and caches the
// last-touched tile. A dimension-ordered route walks along one row or one
// column, so it pays one tile lookup per 64 hops; every other hop is a key
// compare and an array index. Memory stays proportional to the touched
// tiles, so far-apart or negative coordinates cost no more than compact
// ones near the origin (a dense bounding box would).
#pragma once

#include "spatial/geometry.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

namespace scm {

/// A sparse 2-D table of value-initialized `Cell`s, allocated in 64x64
/// tiles on first touch.
template <class Cell>
class TileGrid {
 public:
  static constexpr int kShift = 6;
  static constexpr index_t kSide = index_t{1} << kShift;

  /// The cell at `c`, allocating its zeroed tile on first touch.
  Cell& at(Coord c) { return tile_of(c)[offset(c)]; }

  /// Calls f(Cell&) on the `n` cells of the straight run that starts at
  /// `start` and advances by the unit step (dr, dc) along one axis — one
  /// leg of a dimension-ordered route — paying one tile lookup per tile
  /// the run crosses.
  template <class F>
  void walk(Coord start, index_t dr, index_t dc, index_t n, F&& f) {
    const index_t stride = dr * kSide + dc;
    while (n > 0) {
      Tile& tile = tile_of(start);
      const index_t row = start.row & (kSide - 1);
      const index_t col = start.col & (kSide - 1);
      const index_t left = dr > 0   ? kSide - row
                           : dr < 0 ? row + 1
                           : dc > 0 ? kSide - col
                                    : col + 1;
      const index_t m = std::min(n, left);
      const index_t first = row * kSide + col;
      for (index_t k = 0; k < m; ++k) {
        f(tile[static_cast<std::size_t>(first + k * stride)]);
      }
      start.row += dr * m;
      start.col += dc * m;
      n -= m;
    }
  }

  /// The cell at `c`; nullptr when its tile was never touched.
  [[nodiscard]] const Cell* find(Coord c) const {
    const auto it = tiles_.find(Key{c.row >> kShift, c.col >> kShift});
    return it == tiles_.end() ? nullptr : &(*it->second)[offset(c)];
  }

  /// Calls f(Coord, const Cell&) on every cell of every touched tile,
  /// untouched (zero) cells included: tiles in ascending (tile row, tile
  /// col) order, cells row-major within a tile. The order depends only on
  /// the touched set, never on hash-table internals, so floating-point
  /// folds over it are reproducible.
  template <class F>
  void for_each(F&& f) const {
    std::vector<std::pair<Key, const Tile*>> order;
    order.reserve(tiles_.size());
    for (const auto& [key, tile] : tiles_) order.emplace_back(key, tile.get());
    std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
      return a.first.row != b.first.row ? a.first.row < b.first.row
                                        : a.first.col < b.first.col;
    });
    for (const auto& [key, tile] : order) {
      for (index_t r = 0; r < kSide; ++r) {
        for (index_t c = 0; c < kSide; ++c) {
          f(Coord{(key.row << kShift) + r, (key.col << kShift) + c},
            (*tile)[static_cast<std::size_t>(r * kSide + c)]);
        }
      }
    }
  }

  /// Drops every tile (and the cached one).
  void clear() {
    tiles_.clear();
    cached_ = nullptr;
  }

 private:
  struct Key {
    index_t row{0};
    index_t col{0};

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(
          static_cast<std::uint64_t>(k.row) * 0x9e3779b97f4a7c15ULL ^
          static_cast<std::uint64_t>(k.col));
    }
  };
  using Tile = std::array<Cell, static_cast<std::size_t>(kSide * kSide)>;

  static std::size_t offset(Coord c) {
    return static_cast<std::size_t>(((c.row & (kSide - 1)) << kShift) |
                                    (c.col & (kSide - 1)));
  }

  /// The tile holding `c`: the cached one when `c` falls in it, else
  /// looked up (allocated zeroed on first touch) and cached.
  Tile& tile_of(Coord c) {
    const Key key{c.row >> kShift, c.col >> kShift};
    if (cached_ == nullptr || !(key == cached_key_)) {
      auto& slot = tiles_[key];
      if (slot == nullptr) slot = std::make_unique<Tile>();
      cached_ = slot.get();
      cached_key_ = key;
    }
    return *cached_;
  }

  std::unordered_map<Key, std::unique_ptr<Tile>, KeyHash> tiles_;
  Key cached_key_{};
  Tile* cached_{nullptr};  ///< tile of cached_key_; nullptr when unset
};

}  // namespace scm
