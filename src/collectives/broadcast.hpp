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
#pragma once

#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/phase.hpp"

#include <cassert>
#include <functional>
#include <vector>

namespace scm {

namespace detail {

/// The paper's 1-D broadcast tree over an ordered list of positions;
/// `cells[start]` holds the value. Root at `start`; child A is the next
/// position with the first half of the remainder as its subtree, child B
/// sits at the start of the second half.
template <class T>
void broadcast_line(Machine& m, const std::vector<Coord>& pos,
                    std::vector<Cell<T>>& cells, index_t start, index_t len) {
  if (len <= 1) return;
  const index_t len_a = (len - 1) / 2;
  const index_t len_b = len - 1 - len_a;
  const auto s = static_cast<size_t>(start);
  if (len_a > 0) {
    const auto a = static_cast<size_t>(start + 1);
    cells[a] = Cell<T>{cells[s].value,
                       m.send(pos[s], pos[a], cells[s].clock)};
    broadcast_line(m, pos, cells, start + 1, len_a);
  }
  if (len_b > 0) {
    const auto b = static_cast<size_t>(start + 1 + len_a);
    cells[b] = Cell<T>{cells[s].value,
                       m.send(pos[s], pos[b], cells[s].clock)};
    broadcast_line(m, pos, cells, start + 1 + len_a, len_b);
  }
}

/// Recursive broadcast over an arbitrary rectangle. `val` is resident at
/// rect.origin(); `store` is called exactly once per processor with the
/// arriving cell. Square-ish rects (aspect < 2) use the quadrant recursion;
/// skewed rects tile square blocks along the long axis, reach each block's
/// corner with a 1-D tree over the block corners, and recurse per block.
template <class T, class Store>
void broadcast_rect(Machine& m, const Rect& rect, const Cell<T>& val,
                    Store&& store) {
  assert(rect.size() >= 1);
  store(rect.origin(), val);
  if (rect.size() == 1) return;

  const index_t lo = std::min(rect.rows, rect.cols);
  const index_t hi = std::max(rect.rows, rect.cols);
  if (hi >= 2 * lo && lo >= 1) {
    // Tile `lo x lo` blocks along the long axis; the last may be partial.
    const bool tall = rect.rows >= rect.cols;
    const index_t blocks = (hi + lo - 1) / lo;
    std::vector<Coord> corners;
    std::vector<Rect> block_rects;
    corners.reserve(static_cast<size_t>(blocks));
    for (index_t b = 0; b < blocks; ++b) {
      const index_t off = b * lo;
      const index_t extent = std::min(lo, hi - off);
      const Rect br = tall ? Rect{rect.row0 + off, rect.col0, extent, lo}
                           : Rect{rect.row0, rect.col0 + off, lo, extent};
      corners.push_back(br.origin());
      block_rects.push_back(br);
    }
    std::vector<Cell<T>> cells(corners.size());
    cells[0] = val;
    broadcast_line(m, corners, cells, 0, blocks);
    for (size_t b = 0; b < block_rects.size(); ++b) {
      broadcast_rect(m, block_rects[b], cells[b], store);
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
    const Cell<T> arrived{
        val.value, m.send(rect.origin(), quads[q].origin(), val.clock)};
    broadcast_rect(m, quads[q], arrived, store);
  }
  // Quadrant 0's origin is the rect origin itself, so the recursive call
  // re-stores the identical cell there (harmless) and fans out further.
  if (quads[0].size() > 1) {
    broadcast_rect(m, quads[0], val, store);
  }
}

}  // namespace detail

/// Broadcasts `src` (resident at `rect.origin()`) to every processor of
/// `rect`, handing each processor's arriving cell to `store(coord, cell)`
/// instead of materialising an array, so callers that keep only part of
/// the result (a clock per cell, say) pick their own host storage. Same
/// phase, messages and costs as broadcast().
template <class T, class Store>
void broadcast_to(Machine& m, const Rect& rect, const Cell<T>& src,
                  Store&& store) {
  static const PhaseId kPhase = PhaseRegistry::instance().intern("broadcast");
  Machine::PhaseScope scope(m, kPhase);
  detail::broadcast_rect(m, rect, src, store);
}

/// Broadcasts `src` (resident at `rect.origin()`) to every processor of
/// `rect`. Returns a row-major array over the rect holding the value with
/// each processor's arrival clock. Lemma IV.1: O(hw + h log h) energy,
/// O(log n) depth, O(w + h) distance.
template <class T>
[[nodiscard]] GridArray<T> broadcast(Machine& m, const Rect& rect,
                                     const Cell<T>& src) {
  GridArray<T> out(rect, Layout::kRowMajor, rect.size());
  broadcast_to(m, rect, src, [&](Coord c, const Cell<T>& v) {
    out[(c.row - rect.row0) * rect.cols + (c.col - rect.col0)] = v;
  });
  return out;
}

}  // namespace scm
