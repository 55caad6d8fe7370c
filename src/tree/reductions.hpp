// Rootfix and leaffix tree reductions over an Euler tour.
//
// Given per-vertex values x_v and a *group* operator (associative op with
// an inverse), both reductions become one prefix scan over the tour
// (Tarjan–Vishkin):
//
//   rootfix(v)  = op over the root-to-v path (inclusive). Each down arc
//                 contributes the entered vertex's value, each up arc the
//                 inverse of the departed vertex's value; adjacent
//                 cancellation makes the inclusive prefix at v's entering
//                 arc exactly the path product. The root's value is folded
//                 into the first arc's contribution.
//
//   leaffix(v)  = op over v's subtree in tour (pre)order. Down arcs
//                 contribute the entered value, up arcs the identity; the
//                 subtree product is inv(prefix[first(v) - 1]) o
//                 prefix[last(v)].
//
// Costs past the tour itself: O(m) energy and O(log m) depth per
// reduction (one fan-out batch, one scan, one delivery batch).
//
// Operators without an inverse (Min/Max) go through tree_contract
// (tree/contraction.hpp) instead, which needs commutativity but no
// inverse — the classic trade of the two primitives.
#pragma once

#include "collectives/operators.hpp"
#include "collectives/scan.hpp"
#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "tree/euler.hpp"

#include <vector>

namespace scm::tree {

/// rootfix over the tour: out[v] (dense ids) = op along root -> v,
/// inclusive. `inv` must invert `op` (a group); `values` is dense-indexed.
template <class T, class Op, class Inv>
[[nodiscard]] std::vector<T> rootfix(Machine& m, const EulerTour& tour,
                                     const std::vector<T>& values, Op op,
                                     Inv inv) {
  static_assert(is_associative_v<Op>,
                "rootfix scans require an associative operator");
  static const PhaseId kPhase = PhaseRegistry::instance().intern("rootfix");
  Machine::PhaseScope scope(m, kPhase);
  const index_t n = tour.n;
  const index_t m_arcs = tour.m_arcs;
  GridArray<T> vals = GridArray<T>::from_values(
      tour.verts.region(), Layout::kRowMajor, values);
  std::vector<T> out(static_cast<size_t>(n));
  out[0] = values[0];
  if (m_arcs == 0) return out;

  // Fan the values onto the tour: v's entering (down) arc and departing
  // (up) arc each get x_v; the root's value rides a separate scalar send
  // to arc 0 so no destination repeats within a batch.
  GridArray<T> contrib(tour.tour.region(), Layout::kZOrder, m_arcs);
  {
    static const PhaseId kFanPhase =
        PhaseRegistry::instance().intern("rootfix/fan");
    Machine::PhaseScope fan(m, kFanPhase);
    std::vector<MessageEvent> batch(static_cast<size_t>(2 * (n - 1)));
    for (index_t v = 1; v < n; ++v) {
      const Clock c = Clock::join(vals[v].clock, tour.verts[v].clock);
      const index_t f = tour.first[static_cast<size_t>(v)];
      const index_t l = tour.last[static_cast<size_t>(v)];
      batch[static_cast<size_t>(2 * (v - 1))] =
          MessageEvent{vals.coord(v), tour.tour.coord(f), 0, c, Clock{}};
      batch[static_cast<size_t>(2 * (v - 1) + 1)] =
          MessageEvent{vals.coord(v), tour.tour.coord(l), 0, c, Clock{}};
    }
    m.send_bulk(batch);  // bulk-ok: first/last ranks are all distinct
    for (index_t v = 1; v < n; ++v) {
      const index_t f = tour.first[static_cast<size_t>(v)];
      const index_t l = tour.last[static_cast<size_t>(v)];
      const T& x = values[static_cast<size_t>(v)];
      contrib[f] = Cell<T>{x, batch[static_cast<size_t>(2 * (v - 1))].arrival};
      contrib[l] = Cell<T>{inv(x),
                           batch[static_cast<size_t>(2 * (v - 1) + 1)].arrival};
    }
    const Clock root_arrived =
        m.send(vals.coord(0), tour.tour.coord(0), vals[0].clock);
    contrib[0] = Cell<T>{op(values[0], contrib[0].value),
                         Clock::join(contrib[0].clock, root_arrived)};
    m.op_bulk(m_arcs);
  }
  GridArray<T> prefix = scan(m, contrib, op);

  // Deliver: v's entering arc holds the inclusive path product.
  {
    static const PhaseId kDeliverPhase =
        PhaseRegistry::instance().intern("rootfix/deliver");
    Machine::PhaseScope dl(m, kDeliverPhase);
    GridArray<T> res(tour.verts.region(), Layout::kRowMajor, n);
    std::vector<MessageEvent> batch(static_cast<size_t>(n - 1));
    for (index_t v = 1; v < n; ++v) {
      const index_t f = tour.first[static_cast<size_t>(v)];
      batch[static_cast<size_t>(v - 1)] = MessageEvent{
          prefix.coord(f), res.coord(v), 0, prefix[f].clock, Clock{}};
    }
    m.send_bulk(batch);  // bulk-ok: one entering arc per vertex
    for (index_t v = 1; v < n; ++v) {
      const index_t f = tour.first[static_cast<size_t>(v)];
      res[v] = Cell<T>{prefix[f].value,
                       batch[static_cast<size_t>(v - 1)].arrival};
      out[static_cast<size_t>(v)] = prefix[f].value;
      m.observe(res[v].clock);
    }
  }
  return out;
}

/// leaffix over the tour: out[v] (dense ids) = op over v's subtree in
/// tour preorder. Needs the group structure plus an explicit identity
/// (up arcs contribute it).
template <class T, class Op, class Inv>
[[nodiscard]] std::vector<T> leaffix(Machine& m, const EulerTour& tour,
                                     const std::vector<T>& values, Op op,
                                     Inv inv, T identity) {
  static_assert(is_associative_v<Op>,
                "leaffix scans require an associative operator");
  static const PhaseId kPhase = PhaseRegistry::instance().intern("leaffix");
  Machine::PhaseScope scope(m, kPhase);
  const index_t n = tour.n;
  const index_t m_arcs = tour.m_arcs;
  GridArray<T> vals = GridArray<T>::from_values(
      tour.verts.region(), Layout::kRowMajor, values);
  std::vector<T> out(static_cast<size_t>(n));
  out[0] = values[0];
  if (m_arcs == 0) return out;

  GridArray<T> contrib(tour.tour.region(), Layout::kZOrder, m_arcs);
  {
    static const PhaseId kFanPhase =
        PhaseRegistry::instance().intern("leaffix/fan");
    Machine::PhaseScope fan(m, kFanPhase);
    for (index_t r = 0; r < m_arcs; ++r) {
      contrib[r] = Cell<T>{identity, tour.tour[r].clock};
    }
    std::vector<MessageEvent> batch(static_cast<size_t>(n - 1));
    for (index_t v = 1; v < n; ++v) {
      const index_t f = tour.first[static_cast<size_t>(v)];
      batch[static_cast<size_t>(v - 1)] = MessageEvent{
          vals.coord(v), tour.tour.coord(f), 0,
          Clock::join(vals[v].clock, tour.verts[v].clock), Clock{}};
    }
    m.send_bulk(batch);  // bulk-ok: one entering arc per vertex
    for (index_t v = 1; v < n; ++v) {
      const index_t f = tour.first[static_cast<size_t>(v)];
      contrib[f] = Cell<T>{
          values[static_cast<size_t>(v)],
          Clock::join(contrib[f].clock,
                      batch[static_cast<size_t>(v - 1)].arrival)};
    }
    m.op_bulk(m_arcs);
  }
  GridArray<T> prefix = scan(m, contrib, op);

  // Deliver: two batches (the prefix *before* v's subtree, the prefix at
  // its end), combined at v's cell. The before-term is the identity — a
  // host constant, no message — when v's subtree opens the tour.
  {
    static const PhaseId kDeliverPhase =
        PhaseRegistry::instance().intern("leaffix/deliver");
    Machine::PhaseScope dl(m, kDeliverPhase);
    GridArray<T> res(tour.verts.region(), Layout::kRowMajor, n);
    std::vector<T> before(static_cast<size_t>(n), identity);
    std::vector<Clock> before_clock(static_cast<size_t>(n));
    std::vector<MessageEvent> pre;
    std::vector<index_t> pre_v;
    pre.reserve(static_cast<size_t>(n - 1));
    pre_v.reserve(static_cast<size_t>(n - 1));
    for (index_t v = 1; v < n; ++v) {
      const index_t f = tour.first[static_cast<size_t>(v)];
      if (f == 0) continue;
      pre.push_back(MessageEvent{prefix.coord(f - 1), res.coord(v), 0,
                                 prefix[f - 1].clock, Clock{}});
      pre_v.push_back(v);
    }
    if (!pre.empty()) {
      m.send_bulk(pre);  // bulk-ok: one recipient vertex per entry
    }
    for (size_t k = 0; k < pre.size(); ++k) {
      const index_t v = pre_v[k];
      const index_t f = tour.first[static_cast<size_t>(v)];
      before[static_cast<size_t>(v)] = prefix[f - 1].value;
      before_clock[static_cast<size_t>(v)] = pre[k].arrival;
    }
    // Close-of-subtree terms: last(v) for v != root, and the full tour
    // total for the root — all distinct ranks, all distinct recipients.
    std::vector<MessageEvent> post(static_cast<size_t>(n));
    for (index_t v = 1; v < n; ++v) {
      const index_t l = tour.last[static_cast<size_t>(v)];
      post[static_cast<size_t>(v)] = MessageEvent{
          prefix.coord(l), res.coord(v), 0, prefix[l].clock, Clock{}};
    }
    post[0] = MessageEvent{prefix.coord(m_arcs - 1), res.coord(0), 0,
                           prefix[m_arcs - 1].clock, Clock{}};
    m.send_bulk(post);  // bulk-ok: one recipient vertex per entry
    for (index_t v = 1; v < n; ++v) {
      const index_t l = tour.last[static_cast<size_t>(v)];
      res[v] = Cell<T>{
          op(inv(before[static_cast<size_t>(v)]), prefix[l].value),
          Clock::join(before_clock[static_cast<size_t>(v)],
                      post[static_cast<size_t>(v)].arrival)};
      out[static_cast<size_t>(v)] = res[v].value;
    }
    res[0] = Cell<T>{op(values[0], prefix[m_arcs - 1].value),
                     Clock::join(vals[0].clock, post[0].arrival)};
    out[0] = res[0].value;
    m.op_bulk(n);
    m.observe(res.max_clock());
  }
  return out;
}

}  // namespace scm::tree
