// Direct permutation routing and the permutation energy lower bound
// (Section V-A, Lemma V.1 / Corollary V.2).
//
// Any permutation can be realized by routing every element straight to its
// destination (one message each); on an h x w subgrid the worst case costs
// Theta(max(w,h)^2 * min(w,h)) energy, and the row-reversal permutation
// witnesses the matching lower bound: the first h/3 rows must travel at
// least h/3 each. Since sorting realizes arbitrary permutations, sorting
// inherits the Omega(n^{3/2}) bound — which the 2-D Mergesort matches.
#pragma once

#include "spatial/grid_array.hpp"
#include "spatial/machine.hpp"
#include "spatial/phase.hpp"

#include <cassert>
#include <numeric>
#include <vector>

namespace scm {

/// Applies `perm` to `a` by direct routing: element i is sent to position
/// perm[i] of the result (same region and layout). O(n * diameter) energy
/// worst case, O(1) depth, O(diameter) distance.
template <class T>
[[nodiscard]] GridArray<T> permute(Machine& m, const GridArray<T>& a,
                                   const std::vector<index_t>& perm) {
  assert(static_cast<index_t>(perm.size()) == a.size());
  static const PhaseId kPhase = PhaseRegistry::instance().intern("permute");
  Machine::PhaseScope scope(m, kPhase);
  return route_permutation(m, a, a.region(), a.layout(), perm);
}

/// The lower-bound witness permutation of Lemma V.1: reverses the element
/// order, so elements of the first rows travel to the last rows. Costs
/// Omega(max(w,h)^2 * min(w,h)) energy under any routing.
[[nodiscard]] inline std::vector<index_t> reversal_permutation(index_t n) {
  std::vector<index_t> perm(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    perm[static_cast<size_t>(i)] = n - 1 - i;
  }
  return perm;
}

/// Minimum possible energy of a permutation on `a`'s layout: the sum over
/// elements of the Manhattan distance from source to destination (direct
/// routing achieves it, so this equals the energy permute() charges).
template <class T>
[[nodiscard]] index_t permutation_energy_lower_bound(
    const GridArray<T>& a, const std::vector<index_t>& perm) {
  index_t total = 0;
  for (index_t i = 0; i < a.size(); ++i) {
    total += manhattan(a.coord(i), a.coord(perm[static_cast<size_t>(i)]));
  }
  return total;
}

}  // namespace scm
