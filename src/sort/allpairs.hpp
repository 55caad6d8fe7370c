// All-Pairs Sort (Section V-C-a, Lemma V.5).
//
// A low-depth auxiliary sort that compares every element with every other:
// the computation "explodes" onto an n x n scratch subgrid subdivided into
// n blocks of sqrt(n) x sqrt(n) processors each (one block per element).
//   1. scatter element A_i to the corner of block i;
//   2. broadcast A_i within block i;
//   3. copy the whole array A to every block with the recursive-quadrant
//      2-D broadcast pattern, treating the array and the blocks as units;
//   4. every processor compares its two resident elements;
//   5. each block reduces the comparison bits to the rank of A_i and the
//      element is routed to its sorted position.
//
// Costs: O(n^{5/2}) energy, O(log n) depth, O(n) distance — low depth but
// polynomially sub-optimal energy, which is why the merge machinery only
// applies it to one O(sqrt n)-sized sample per merge node, shared across
// the three split ranks by the Lemma V.6 multiselect (a window-sized
// second application per rank once dominated the whole mergesort).
//
// The comparator must be a strict TOTAL order (distinct ranks); wrap
// elements with WithId/TotalLess for duplicate keys. A comparator that
// yields a repeated or out-of-range rank is rejected in every build with
// std::invalid_argument before any output is written. The scratch subgrid
// overlays the grid starting at the input's region origin; every processor
// holds O(1) extra words during the sort, within the model's memory bound.
//
// Host side: every block holds a copy of the same n values, so the
// simulator keeps only clocks: the array copies' arrival clocks in one
// flat per-call buffer, and the block broadcasts' from the shared s x s
// broadcast tree. It decodes the block-local Z-order offsets once per
// call.
#pragma once

#include "collectives/broadcast.hpp"
#include "collectives/operators.hpp"
#include "collectives/reduce.hpp"
#include "sort/keyed.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/phase.hpp"
#include "spatial/zorder.hpp"

#include <cassert>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace scm {

namespace detail {

/// Copies the array resident in block `group_first` (cell j of the block
/// holds A_j in block-local Z-order) to every block of the Z-order block
/// range [group_first, group_first + group_size), recursively by quadrant
/// groups. The copied values are A's own, so only clocks are kept:
/// `clocks[b * n + j]` receives the arrival clock of A_j's copy in block
/// b. `local[j]` is the block-local offset of Z-order position j, for the
/// n = local.size() elements and the n live blocks (blocks at or beyond n
/// host no element and are skipped). `batch` is n entries of scratch.
inline void copy_array_to_blocks(Machine& m, const Rect& base,
                                 index_t block_side,
                                 std::span<const Offset2D> local,
                                 index_t group_first, index_t group_size,
                                 std::vector<Clock>& clocks,
                                 std::vector<MessageEvent>& batch) {
  const auto n = static_cast<index_t>(local.size());
  if (group_size <= 1 || group_first >= n) return;
  const index_t quarter = group_size / 4;

  auto block_origin = [&](index_t b) {
    const Offset2D& off = local[static_cast<size_t>(b)];
    return Coord{base.row0 + off.row * block_side,
                 base.col0 + off.col * block_side};
  };

  const Coord src = block_origin(group_first);
  const Clock* const src_clocks =
      clocks.data() + static_cast<size_t>(group_first * n);
  for (int q = 1; q < 4; ++q) {
    const index_t dst_block = group_first + q * quarter;
    if (dst_block >= n) break;
    const Coord dst = block_origin(dst_block);
    for (index_t j = 0; j < n; ++j) {
      const Offset2D& off = local[static_cast<size_t>(j)];
      batch[static_cast<size_t>(j)] = MessageEvent{
          Coord{src.row + off.row, src.col + off.col},
          Coord{dst.row + off.row, dst.col + off.col}, 0,
          src_clocks[j], Clock{}};
    }
    // One block-to-block array copy per batch: cell j of the source block
    // feeds cell j of the (disjoint) destination block, so sources and
    // destinations are pairwise distinct within the batch.
    m.send_bulk(batch);  // bulk-ok: caller holds the phase scope
    Clock* const dst_clocks =
        clocks.data() + static_cast<size_t>(dst_block * n);
    for (index_t j = 0; j < n; ++j) {
      dst_clocks[j] = batch[static_cast<size_t>(j)].arrival;
    }
  }
  for (int q = 0; q < 4; ++q) {
    copy_array_to_blocks(m, base, block_side, local,
                         group_first + q * quarter, quarter, clocks, batch);
  }
}

}  // namespace detail

/// All-Pairs Sort under the strict total order `less`. Returns the sorted
/// array in Z-order on the canonical square at the input's region origin.
/// Throws std::invalid_argument when `less` is not a strict total order
/// over the input (two elements land on one rank).
template <class T, class Less>
[[nodiscard]] GridArray<T> allpairs_sort(Machine& m, const GridArray<T>& input,
                                         Less less) {
  const index_t n = input.size();
  const Coord origin = input.region().origin();
  if (n <= 1) {
    GridArray<T> out = GridArray<T>::on_square(origin, n);
    if (n == 1) send_element(m, input, 0, out, 0);
    return out;
  }
  static const PhaseId kPhase =
      PhaseRegistry::instance().intern("allpairs_sort");
  Machine::PhaseScope scope(m, kPhase);

  const index_t s = square_side_for(n);  // block side; s*s blocks available
  const index_t cells = s * s;           // processors per block
  const Rect base = square_at(origin, s);
  const auto un = static_cast<size_t>(n);

  // Route the input into block 0 (the base square) in Z-order. An input
  // already there at offset 0 — the multiselect sample always is — would
  // only send zero-length messages, which are free and unreported, so it
  // is used as is.
  const bool in_place = input.layout() == Layout::kZOrder &&
                        input.region() == base && input.offset() == 0;
  std::optional<GridArray<T>> routed;
  const GridArray<T>& a =
      in_place ? input
               : routed.emplace(
                     route_permutation(m, input, base, Layout::kZOrder));

  // Block-local offset of Z-order position j < n, decoded once. It places
  // element j within any block, block j within the base square and
  // output position j (A and the output are Z-order on the base square).
  std::vector<Offset2D> local(un);
  for (index_t j = 0; j < n; ++j) {
    local[static_cast<size_t>(j)] = zorder_decode(j);
  }
  auto on_base = [&](index_t j) {
    const Offset2D& off = local[static_cast<size_t>(j)];
    return Coord{base.row0 + off.row, base.col0 + off.col};
  };
  auto block_origin = [&](index_t b) {
    const Offset2D& off = local[static_cast<size_t>(b)];
    return Coord{base.row0 + off.row * s, base.col0 + off.col * s};
  };

  // Step 1: scatter A_i to the corner of block i as one bulk batch —
  // distinct elements head for distinct block corners, so the batch is
  // self-independent. (Entry 0 is a zero-length message: A_0 already sits
  // on block 0's corner.) `corner[i]` is A_i's clock there.
  std::vector<MessageEvent> batch(un);
  std::vector<Clock> corner(un);
  for (index_t i = 0; i < n; ++i) {
    batch[static_cast<size_t>(i)] =
        MessageEvent{on_base(i), block_origin(i), 0, a[i].clock, Clock{}};
  }
  m.send_bulk(batch);
  for (size_t i = 0; i < un; ++i) corner[i] = batch[i].arrival;

  // Step 2: broadcast A_i within block i. Every block has the same s x s
  // tree, so processor k of block i holds A_i from
  // block.arrival(corner[i], row, col) on; step 4 reads that directly.
  const BroadcastTree& block = BroadcastTree::of(s, s);
  for (index_t i = 0; i < n; ++i) {
    const Coord o = block_origin(i);
    broadcast_tree(m, Rect{o.row, o.col, s, s},
                   corner[static_cast<size_t>(i)]);
  }

  // Step 3: copy A to every block (block 0 holds it already, cost-free).
  // `copies[b * n + j]` is the clock of A_j's copy in block b.
  std::vector<Clock> copies(un * un);
  for (index_t j = 0; j < n; ++j) {
    copies[static_cast<size_t>(j)] = a[j].clock;
  }
  detail::copy_array_to_blocks(m, base, s, local, 0, cells, copies, batch);

  // Step 4: compare locally (one op per processor of block i, charged as
  // one bulk op event per block), reduce the bits to A_i's rank. One
  // row-major bit buffer serves every block: processor `rm[j]` holds the
  // bit of A_j, and the processors `present` leaves unmarked hold none
  // and only relay.
  std::vector<index_t> rm(un);
  std::vector<char> present(static_cast<size_t>(cells), 0);
  for (size_t j = 0; j < un; ++j) {
    rm[j] = local[j].row * s + local[j].col;
    present[static_cast<size_t>(rm[j])] = 1;
  }
  std::vector<Cell<index_t>> bits(static_cast<size_t>(cells));
  std::vector<index_t> ranks(un);
  for (index_t i = 0; i < n; ++i) {
    const Coord o = block_origin(i);
    const Clock root = corner[static_cast<size_t>(i)];  // step 2's root
    const Clock* const copy = copies.data() + static_cast<size_t>(i * n);
    const T& self = a[i].value;
    for (index_t j = 0; j < n; ++j) {
      const Offset2D& off = local[static_cast<size_t>(j)];
      bits[static_cast<size_t>(rm[static_cast<size_t>(j)])] = Cell<index_t>{
          less(a[j].value, self) ? index_t{1} : index_t{0},
          Clock::join(copy[j], block.arrival(root, off.row, off.col))};
    }
    m.op_bulk(n);
    const Cell<index_t> rank = reduce_from<index_t>(
        m, Rect{o.row, o.col, s, s},
        [&](Coord c) -> const Cell<index_t>* {
          const auto k =
              static_cast<size_t>((c.row - o.row) * s + (c.col - o.col));
          return present[k] != 0 ? &bits[k] : nullptr;
        },
        Plus{});
    ranks[static_cast<size_t>(i)] = rank.value;
    // A_i leaves its corner once its rank has arrived there.
    corner[static_cast<size_t>(i)] =
        Clock::join(corner[static_cast<size_t>(i)], rank.clock);
  }

  // Under a strict total order the ranks are a permutation of [0, n);
  // anything else would make step 5 overwrite output cells silently.
  {
    std::vector<char> taken(un, 0);
    for (const index_t r : ranks) {
      if (r < 0 || r >= n || taken[static_cast<size_t>(r)] != 0) {
        throw std::invalid_argument(
            "allpairs_sort: rank " + std::to_string(r) +
            " is taken twice or out of range; the comparator must be a "
            "strict total order (wrap duplicate keys with WithId/TotalLess)");
      }
      taken[static_cast<size_t>(r)] = 1;
    }
  }

  // Step 5: route every A_i (resident at the corner of block i with its
  // rank) to its sorted position, as one bulk batch — the ranks are a
  // permutation under the strict total order, so the n block corners feed
  // n distinct output cells.
  GridArray<T> out = GridArray<T>::on_square(origin, n);
  for (index_t i = 0; i < n; ++i) {
    batch[static_cast<size_t>(i)] =
        MessageEvent{block_origin(i), on_base(ranks[static_cast<size_t>(i)]),
                     0, corner[static_cast<size_t>(i)], Clock{}};
  }
  m.send_bulk(batch);
  for (index_t i = 0; i < n; ++i) {
    out[ranks[static_cast<size_t>(i)]] =
        Cell<T>{a[i].value, batch[static_cast<size_t>(i)].arrival};
  }
  return out;
}

/// Stable All-Pairs Sort for arbitrary (possibly duplicated) keys: tags
/// elements with their index and sorts under the induced total order.
template <class T, class Less>
[[nodiscard]] GridArray<T> allpairs_sort_stable(Machine& m,
                                                const GridArray<T>& input,
                                                Less less) {
  GridArray<WithId<T>> tagged = attach_ids(m, input);
  GridArray<WithId<T>> sorted =
      allpairs_sort(m, tagged, TotalLess<Less>{less});
  return detach_ids(m, sorted);
}

}  // namespace scm
