// Broadcast without multicasting (Section IV-A).
//
// Broadcasts a value from the top-left processor of an h x w subgrid to all
// of its processors in O(hw + h log h) energy, O(log n) depth, and O(w + h)
// distance (Lemma IV.1):
//   * 1-D case (a line): a binary tree whose root has one child directly
//     next to it and one child at an offset of half the remaining length;
//   * 2-D square case: send to the top-left corners of the other three
//     quadrants, then recurse into each quadrant;
//   * general h x w, h >= w: a 1-D broadcast down the first column reaching
//     the top-left corner of each w x w block, then a 2-D broadcast inside
//     each block (the partial last block recurses with roles transposed).
//
// On a square subgrid this is an O(n)-energy, O(log n)-depth broadcast — the
// Theta(log n) energy improvement over binary-tree broadcasts claimed in
// Section II-A (see collectives/baselines.hpp for that baseline).
//
// The tree depends only on the rect's shape, so it is compiled once per
// (rows, cols) into a BroadcastTree: its total cost and one hop count per
// processor. Every root-to-processor path moves only down or right
// (quadrant origins and line-tree children lie down/right of their
// parent), so processor (r, c) receives at
// Clock{root.depth + hops, root.distance + r + c}. A broadcast is then one
// Machine::send_tree accrual, and consumers read arrival clocks from the
// table instead of materialising them.
#pragma once

#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/metrics.hpp"
#include "spatial/phase.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace scm {

namespace detail {

/// The paper's 1-D broadcast tree over the ordered positions `pos`; the
/// value sits at `pos[start]` with clock `clocks[start]`. Root at `start`;
/// child A is the next position with the first half of the remainder as
/// its subtree, child B sits at the start of the second half. Every edge
/// goes through `hop(from, to, payload) -> arrival`, whose result lands in
/// `clocks`.
template <class Hop>
void broadcast_line(std::span<const Coord> pos, std::span<Clock> clocks,
                    index_t start, index_t len, Hop& hop) {
  if (len <= 1) return;
  const index_t len_a = (len - 1) / 2;
  const index_t len_b = len - 1 - len_a;
  const auto s = static_cast<size_t>(start);
  if (len_a > 0) {
    const auto a = static_cast<size_t>(start + 1);
    clocks[a] = hop(pos[s], pos[a], clocks[s]);
    broadcast_line(pos, clocks, start + 1, len_a, hop);
  }
  if (len_b > 0) {
    const auto b = static_cast<size_t>(start + 1 + len_a);
    clocks[b] = hop(pos[s], pos[b], clocks[s]);
    broadcast_line(pos, clocks, start + 1 + len_a, len_b, hop);
  }
}

/// The broadcast recursion over an arbitrary rectangle, from
/// `rect.origin()` where the value has clock `root`: every tree edge, in
/// emission order, is one `hop(from, to, payload) -> arrival` call.
/// Square-ish rects (aspect < 2) use the quadrant recursion; skewed rects
/// tile square blocks along the long axis, reach each block's corner with
/// a 1-D tree over the block corners, and recurse per block. The only
/// copy of the recursion: the tree builder, the scalar reference path and
/// sink replay all run it.
template <class Hop>
void broadcast_walk(const Rect& rect, Clock root, Hop& hop) {
  if (rect.size() <= 1) return;

  const index_t lo = std::min(rect.rows, rect.cols);
  const index_t hi = std::max(rect.rows, rect.cols);
  if (hi >= 2 * lo && lo >= 1) {
    // Tile `lo x lo` blocks along the long axis; the last may be partial.
    const bool tall = rect.rows >= rect.cols;
    const index_t blocks = (hi + lo - 1) / lo;
    auto block = [&](index_t b) {
      const index_t off = b * lo;
      const index_t extent = std::min(lo, hi - off);
      return tall ? Rect{rect.row0 + off, rect.col0, extent, lo}
                  : Rect{rect.row0, rect.col0 + off, lo, extent};
    };
    std::vector<Coord> corners(static_cast<size_t>(blocks));
    for (index_t b = 0; b < blocks; ++b) {
      corners[static_cast<size_t>(b)] = block(b).origin();
    }
    std::vector<Clock> clocks(corners.size());
    clocks[0] = root;
    broadcast_line<Hop>(corners, clocks, 0, blocks, hop);
    for (index_t b = 0; b < blocks; ++b) {
      broadcast_walk(block(b), clocks[static_cast<size_t>(b)], hop);
    }
    return;
  }

  // Quadrant recursion (the 2-D broadcast); handles odd sides by splitting
  // into ceil/floor halves.
  const index_t top = (rect.rows + 1) / 2;
  const index_t left = (rect.cols + 1) / 2;
  const Rect quads[4] = {
      Rect{rect.row0, rect.col0, top, left},
      Rect{rect.row0, rect.col0 + left, top, rect.cols - left},
      Rect{rect.row0 + top, rect.col0, rect.rows - top, left},
      Rect{rect.row0 + top, rect.col0 + left, rect.rows - top,
           rect.cols - left},
  };
  // Quadrant 0 keeps the resident value; the others receive a message to
  // their top-left corner.
  for (int q = 1; q < 4; ++q) {
    if (quads[q].size() <= 0) continue;
    broadcast_walk(quads[q], hop(rect.origin(), quads[q].origin(), root),
                   hop);
  }
  broadcast_walk(quads[0], root, hop);
}

}  // namespace detail

/// The broadcast tree of one rect shape, compiled once by
/// detail::broadcast_walk from a zero root clock at (0, 0).
struct BroadcastTree {
  index_t rows{0};
  index_t cols{0};
  index_t energy{0};    ///< summed Manhattan length of the tree's edges
  index_t messages{0};  ///< edge count: rows * cols - 1
  index_t max_hops{0};  ///< the tree's depth
  /// Messages on the root's path to each processor, row-major.
  std::vector<std::uint8_t> hops;

  /// The tree of a rows x cols rect, built on first use and cached for the
  /// life of the process (one byte per processor per distinct shape).
  /// The reference stays valid.
  [[nodiscard]] static const BroadcastTree& of(index_t rows, index_t cols) {
    static std::unordered_map<std::uint64_t, BroadcastTree> cache;
    const std::uint64_t key = (static_cast<std::uint64_t>(rows) << 32) |
                              static_cast<std::uint64_t>(cols);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
    return cache.emplace(key, build(rows, cols)).first->second;
  }

  /// Arrival clock at rect-relative processor (r, c) of a broadcast whose
  /// value has clock `root` at the rect's origin.
  [[nodiscard]] Clock arrival(Clock root, index_t r, index_t c) const {
    return Clock{root.depth + hops[static_cast<size_t>(r * cols + c)],
                 root.distance + r + c};
  }

  /// What the tree's messages add up to for a root clock `root`: the
  /// deepest arrival and the far corner's arrival bound the join of every
  /// arrival clock.
  [[nodiscard]] Metrics totals(Clock root) const {
    return Metrics{energy, messages, 0,
                   Clock{root.depth + max_hops,
                         root.distance + rows - 1 + cols - 1}};
  }

 private:
  static BroadcastTree build(index_t rows, index_t cols) {
    BroadcastTree t{rows, cols, 0, 0, 0,
                    std::vector<std::uint8_t>(
                        static_cast<size_t>(rows * cols), 0)};
    auto hop = [&](Coord from, Coord to, Clock payload) {
      const index_t dist = manhattan(from, to);
      const Clock arrival = payload.after_hop(dist);
      // The closed-form arrival clock rests on every path being monotone
      // (down/right); a tree edge that broke it, or a tree deeper than a
      // hop byte holds, would make arrival() lie.
      if (dist == 0 || to.row < from.row || to.col < from.col ||
          arrival.distance != to.row + to.col || arrival.depth > 255) {
        throw std::logic_error(
            "BroadcastTree: non-monotone or too deep tree edge in a " +
            std::to_string(rows) + "x" + std::to_string(cols) + " rect");
      }
      t.hops[static_cast<size_t>(to.row * cols + to.col)] =
          static_cast<std::uint8_t>(arrival.depth);
      t.energy += dist;
      ++t.messages;
      t.max_hops = std::max(t.max_hops, arrival.depth);
      return arrival;
    };
    detail::broadcast_walk(Rect{0, 0, rows, cols}, Clock{}, hop);
    return t;
  }
};

/// Broadcasts a value with clock `root` from `rect.origin()` to every
/// processor of `rect`, charged in the "broadcast" phase, and returns the
/// shape's tree: processor (r, c) of the rect holds the value from
/// tree.arrival(root, r, c) on. Lemma IV.1: O(hw + h log h) energy,
/// O(log n) depth, O(w + h) distance.
inline const BroadcastTree& broadcast_tree(Machine& m, const Rect& rect,
                                           Clock root) {
  static const PhaseId kPhase = PhaseRegistry::instance().intern("broadcast");
  Machine::PhaseScope scope(m, kPhase);
  const BroadcastTree& tree = BroadcastTree::of(rect.rows, rect.cols);
  m.send_tree(tree.totals(root),
              [&](auto& hop) { detail::broadcast_walk(rect, root, hop); });
  return tree;
}

/// Broadcasts `src` (resident at `rect.origin()`) to every processor of
/// `rect`. Returns a row-major array over the rect holding the value with
/// each processor's arrival clock; broadcast_tree() gives the clocks
/// without the array.
template <class T>
[[nodiscard]] GridArray<T> broadcast(Machine& m, const Rect& rect,
                                     const Cell<T>& src) {
  const BroadcastTree& tree = broadcast_tree(m, rect, src.clock);
  GridArray<T> out(rect, Layout::kRowMajor, rect.size());
  for (index_t r = 0; r < rect.rows; ++r) {
    for (index_t c = 0; c < rect.cols; ++c) {
      out[r * rect.cols + c] = Cell<T>{src.value, tree.arrival(src.clock, r, c)};
    }
  }
  return out;
}

}  // namespace scm
