// Low-depth reduce and all-reduce (Section IV-B).
//
// Reduce combines n inputs with an associative, commutative operator and
// leaves the result at the subgrid's top-left processor using the reverse
// communication pattern of the broadcast (Corollary IV.2): O(hw + h log h)
// energy, O(log n) depth, O(w + h) distance. On a square subgrid this is a
// logarithmic-depth reduce with optimal O(n) energy — a Theta(log n)
// improvement over the binary-tree reduce baseline (Section II-A).
#pragma once

#include "collectives/broadcast.hpp"
#include "collectives/operators.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/phase.hpp"

#include <cassert>
#include <optional>
#include <vector>

namespace scm {

namespace detail {

/// Accessor mapping a processor coordinate to the array element it holds,
/// or nullptr when the processor holds none (arrays may underfill their
/// region, and reduce subtrees may cover element-free processors that act
/// purely as relays).
template <class T>
class ElementAt {
 public:
  explicit ElementAt(const GridArray<T>& a) : a_(&a) {}

  const Cell<T>* operator()(Coord c) const {
    const Rect& r = a_->region();
    if (!r.contains(c)) return nullptr;
    index_t pos = 0;
    if (a_->layout() == Layout::kRowMajor) {
      pos = (c.row - r.row0) * r.cols + (c.col - r.col0);
    } else {
      pos = zorder_index(r, c);
    }
    const index_t idx = pos - a_->offset();
    if (idx < 0 || idx >= a_->size()) return nullptr;
    return &(*a_)[idx];
  }

 private:
  const GridArray<T>* a_;
};

/// Reverse of broadcast_line: reduces the subtree rooted at `start` over an
/// ordered list of positions whose values are in `acc` (std::optional per
/// position), leaving the subtree result at `acc[start]`.
template <class T, class Op>
void reduce_line(Machine& m, const std::vector<Coord>& pos,
                 std::vector<std::optional<Cell<T>>>& acc, index_t start,
                 index_t len, Op op) {
  if (len <= 1) return;
  const index_t len_a = (len - 1) / 2;
  const index_t len_b = len - 1 - len_a;
  const auto s = static_cast<size_t>(start);
  auto absorb = [&](index_t child) {
    const auto c = static_cast<size_t>(child);
    if (!acc[c]) return;
    const Cell<T> arrived{acc[c]->value,
                          m.send(pos[c], pos[s], acc[c]->clock)};
    if (acc[s]) {
      acc[s] = Cell<T>{op(acc[s]->value, arrived.value),
                       Clock::join(acc[s]->clock, arrived.clock)};
      m.op();
      m.observe(acc[s]->clock);
    } else {
      acc[s] = arrived;
    }
  };
  if (len_a > 0) {
    reduce_line(m, pos, acc, start + 1, len_a, op);
    absorb(start + 1);
  }
  if (len_b > 0) {
    reduce_line(m, pos, acc, start + 1 + len_a, len_b, op);
    absorb(start + 1 + len_a);
  }
}

/// Reduces all elements within `rect` to `rect.origin()` using the reverse
/// broadcast pattern; returns std::nullopt when the rect holds no element.
template <class T, class Op, class Get>
std::optional<Cell<T>> reduce_rect(Machine& m, const Rect& rect, Get&& get,
                                   Op op) {
  assert(rect.size() >= 1);
  if (rect.size() == 1) {
    const Cell<T>* cell = get(rect.origin());
    return cell ? std::optional<Cell<T>>(*cell) : std::nullopt;
  }

  const index_t lo = std::min(rect.rows, rect.cols);
  const index_t hi = std::max(rect.rows, rect.cols);
  if (hi >= 2 * lo && lo >= 1) {
    const bool tall = rect.rows >= rect.cols;
    const index_t blocks = (hi + lo - 1) / lo;
    std::vector<Coord> corners;
    std::vector<std::optional<Cell<T>>> acc;
    std::vector<Rect> block_rects;
    for (index_t b = 0; b < blocks; ++b) {
      const index_t off = b * lo;
      const index_t extent = std::min(lo, hi - off);
      const Rect br = tall ? Rect{rect.row0 + off, rect.col0, extent, lo}
                           : Rect{rect.row0, rect.col0 + off, lo, extent};
      corners.push_back(br.origin());
      block_rects.push_back(br);
    }
    acc.resize(corners.size());
    for (size_t b = 0; b < block_rects.size(); ++b) {
      acc[b] = reduce_rect<T>(m, block_rects[b], get, op);
    }
    reduce_line(m, corners, acc, 0, blocks, op);
    return acc[0];
  }

  const index_t top = (rect.rows + 1) / 2;
  const index_t left = (rect.cols + 1) / 2;
  const Rect quads[4] = {
      Rect{rect.row0, rect.col0, top, left},
      Rect{rect.row0, rect.col0 + left, top, rect.cols - left},
      Rect{rect.row0 + top, rect.col0, rect.rows - top, left},
      Rect{rect.row0 + top, rect.col0 + left, rect.rows - top,
           rect.cols - left},
  };
  std::optional<Cell<T>> result =
      quads[0].size() > 0 ? reduce_rect<T>(m, quads[0], get, op)
                          : std::nullopt;
  for (int q = 1; q < 4; ++q) {
    if (quads[q].size() <= 0) continue;
    std::optional<Cell<T>> part = reduce_rect<T>(m, quads[q], get, op);
    if (!part) continue;
    const Cell<T> arrived{
        part->value, m.send(quads[q].origin(), rect.origin(), part->clock)};
    if (result) {
      result = Cell<T>{op(result->value, arrived.value),
                       Clock::join(result->clock, arrived.clock)};
      m.op();
      m.observe(result->clock);
    } else {
      result = arrived;
    }
  }
  return result;
}

}  // namespace detail

/// Reduces the elements of `a` with the associative, commutative operator
/// `op`, leaving the result at the top-left processor of the array's
/// region. Corollary IV.2 costs. The array must be non-empty.
template <class T, class Op>
[[nodiscard]] Cell<T> reduce(Machine& m, const GridArray<T>& a, Op op) {
  assert(!a.empty());
  static const PhaseId kPhase = PhaseRegistry::instance().intern("reduce");
  Machine::PhaseScope scope(m, kPhase);
  std::optional<Cell<T>> result =
      detail::reduce_rect<T>(m, a.region(), detail::ElementAt<T>(a), op);
  assert(result.has_value());
  return *result;
}

/// Reduce followed by a broadcast of the result to every processor of the
/// array's region (the all-reduce collective used by Section VI's counting
/// steps). Returns a row-major array over the region.
template <class T, class Op>
[[nodiscard]] GridArray<T> all_reduce(Machine& m, const GridArray<T>& a,
                                      Op op) {
  static const PhaseId kPhase = PhaseRegistry::instance().intern("all_reduce");
  Machine::PhaseScope scope(m, kPhase);
  const Cell<T> total = reduce(m, a, op);
  return broadcast(m, a.region(), total);
}

}  // namespace scm
