// The Spatial Computer Model machine: an unbounded 2-D grid of processors
// with O(1) local memory, where sending a message costs its Manhattan
// distance (Section III of the paper).
//
// The Machine is a *cost-exact simulator*: algorithms execute host-side but
// every inter-processor message is charged through Machine::send, which
//   * adds the Manhattan distance to the global energy counter,
//   * advances the value's critical-path clock by (1 message, d distance),
//   * records the running maximum clock (= the computation's depth and
//     distance).
// Local computation joins input clocks (Clock::join) and is charged only to
// the informational local_ops counter, matching the model in which only
// messages cost energy/depth/distance.
//
// Named phases give per-stage cost breakdowns for benchmarks and ablations.
// Phase names are interned into dense PhaseIds (spatial/phase.hpp) and the
// attribution engine works purely on integers. Charging an event is O(1):
// it adds to the totals and to one pending record. The set of distinct
// active phases only changes at phase transitions, so the pending record
// is folded into each of them there (and before any per-phase query) —
// exact, because sums and Clock::join commute. The name-level
// deduplication recursive algorithms need (a phase stacked at every
// recursion level is attributed once) also happens at transitions.
#pragma once

#include "spatial/clock.hpp"
#include "spatial/geometry.hpp"
#include "spatial/metrics.hpp"
#include "spatial/phase.hpp"
#include "spatial/trace.hpp"

#include <cassert>
#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace scm {

/// Cost-accounting simulator of the Spatial Computer Model.
class Machine {
 public:
  /// A fresh machine announces itself to the global trace sink (on_reset),
  /// so cross-machine residency accounting starts from a clean epoch.
  Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Charges one message from `from` to `to` carrying a value whose
  /// critical-path clock is `payload`; returns the clock of the value on
  /// arrival. A zero-length send (from == to) is free: the model only
  /// prices actual wire traversals, and "sending to yourself" is local.
  Clock send(Coord from, Coord to, Clock payload);

  /// Bulk-charging fast path: charges every message of `batch` as one
  /// batch. The caller fills each entry's `from`, `to`, and `payload`;
  /// the machine fills `distance` and `arrival` (the returned clocks).
  /// Zero-length entries are free, exactly as in the scalar path.
  ///
  /// Semantics are *metrics-identical* to calling send() per entry in
  /// batch order: same totals, same per-phase records, same events as
  /// observed through the default TraceSink replay. The speedup comes
  /// from amortization: energy/messages/clock maxima accumulate in a
  /// tight local loop and are accrued once per batch (phases cannot
  /// change mid-batch — the whole batch is attributed to the phase set
  /// active at this call), and attached sinks receive one
  /// on_send_bulk event instead of up to two virtual dispatches per
  /// message. No event is emitted when every entry is zero-length.
  ///
  /// When bulk charging is disabled (set_bulk_charging(false) — the A/B
  /// reference mode), the batch decomposes into scalar send() calls.
  void send_bulk(std::span<MessageEvent> batch);

  /// Records `n` local compute operations (free in the model's metrics;
  /// reported to trace sinks via TraceSink::on_op for per-phase work
  /// attribution).
  void op(index_t n = 1);

  /// Bulk form of op(): records `n` local operations accumulated by a
  /// batched loop as one charged event. Metrics-identical to `n` op()
  /// calls (local_ops simply sums); sinks see one on_op(n) instead of n.
  void op_bulk(index_t n);

  /// Records that a value with clock `c` now exists (used when a clock is
  /// produced by pure local combination so the running maximum stays
  /// correct even if the value is never sent again).
  void observe(Clock c);

  /// Declares that a value with clock `c` is resident at processor `at`
  /// without a message having delivered it (input placement). Free in the
  /// model's metrics; reported to trace sinks so residency accounting (the
  /// conformance checker's O(1)-memory enforcement) sees it.
  void birth(Coord at, Clock c = Clock{});

  /// Declares that the value resident at processor `at` has been consumed
  /// or freed. Free in the model's metrics; reported to trace sinks.
  void death(Coord at);

  /// Bulk value placement (GridArray::announce): observes the join of all
  /// birth clocks once and emits a single on_birth_bulk event.
  /// Metrics-identical to per-entry birth() in batch order.
  void birth_bulk(std::span<const BirthEvent> batch);

  /// Bulk value retirement (GridArray::retire): one on_death_bulk event.
  void death_bulk(std::span<const Coord> batch);

  /// Process-wide switch between the bulk fast path (default) and the
  /// scalar reference path, in which every *_bulk call decomposes into
  /// its per-event scalar form. The two paths are metrics-identical by
  /// contract; the A/B equivalence harness (spatial/bulk_ab.hpp) runs
  /// algorithms under both and asserts it.
  static void set_bulk_charging(bool enabled);
  [[nodiscard]] static bool bulk_charging();

  /// Costs accumulated since construction (or the last reset).
  [[nodiscard]] const Metrics& metrics() const { return totals_; }

  /// Clears all counters and per-phase records.
  void reset();

  /// Per-phase cost records, keyed by phase name — a snapshot materialized
  /// from the id-indexed engine (names sorted, as the historical map API
  /// guaranteed). Nested phases accumulate into every active scope, so
  /// "sort" includes its "sort/merge" children; a phase appears once it
  /// has at least one attributed event. The materialization is cached and
  /// invalidated whenever any per-phase record mutates (folding charges
  /// made under an active phase, or reset), so report paths that query it
  /// repeatedly — cost_report, the run-report exporter, the A/B harness —
  /// pay the string-keyed map build once per change, not once per call.
  /// Registry growth alone cannot change the output (names are immutable
  /// per id and a phase appears only once touched), so it does not
  /// invalidate. The reference stays valid until the Machine is destroyed;
  /// its *contents* refresh on the next phases() call after a mutation.
  [[nodiscard]] const std::map<std::string, Metrics>& phases() const;

  /// Costs recorded under a phase name; a zero Metrics if never entered.
  /// The reference stays valid across further charging and phase
  /// transitions (per-phase records never move), so hot query paths pay
  /// no Metrics copy. Its contents are current as of the last per-phase
  /// query or phase transition: charges made since then are folded in by
  /// the next one.
  [[nodiscard]] const Metrics& phase(std::string_view name) const;

  /// Id-indexed form of phase(): costs recorded under the interned phase
  /// `id`, zero Metrics if never touched. Stable reference, with the same
  /// currency rule; the zero-string-work accessor for hot query loops.
  [[nodiscard]] const Metrics& phase(PhaseId id) const;

  /// The ids of every phase with at least one attributed event since the
  /// last reset, in first-touch order. With phase(PhaseId) this iterates
  /// per-phase records without materializing the phases() map — use it
  /// (or phase(name)) on hot query paths; phases() copies every record
  /// into a freshly built string-keyed map on each call and exists for
  /// report-time snapshots.
  [[nodiscard]] std::span<const PhaseId> touched_phases() const {
    fold_pending();
    return touched_;
  }

  /// Attaches a message observer (e.g. a LoadMap building per-processor
  /// congestion maps); pass nullptr to detach. Not owned. Zero-length
  /// sends are free in the model and are not reported.
  void set_trace(TraceSink* sink) { trace_ = sink; }

  /// Process-wide trace sink receiving the events of *every* Machine, in
  /// addition to any per-machine sink. Not owned; pass nullptr to detach.
  /// This is how the test harness attaches the conformance checker to all
  /// machines a test creates without threading a sink through every call.
  static void set_global_trace(TraceSink* sink);
  [[nodiscard]] static TraceSink* global_trace();

  /// Enters a named cost-attribution phase (interning the name). Prefer
  /// the RAII PhaseScope; the explicit form exists for bindings and for
  /// conformance tests that deliberately leave a phase unbalanced.
  void begin_phase(std::string_view name);

  /// Enters a phase by pre-interned id (PhaseRegistry::intern) — the
  /// zero-string-work form for hot recursive call sites.
  void begin_phase(PhaseId id);

  /// Exits the innermost phase. No-op on an empty phase stack (the
  /// imbalance is the conformance checker's to report, not UB).
  void end_phase();

  /// RAII scope that attributes all costs charged during its lifetime to
  /// a phase (in addition to any enclosing phases and the global totals).
  class PhaseScope {
   public:
    PhaseScope(Machine& m, std::string_view name);
    PhaseScope(Machine& m, PhaseId id);
    ~PhaseScope();
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

   private:
    Machine& machine_;
  };

 private:
  /// Adds an event's contribution to the totals and to the pending record
  /// that fold_pending() later attributes to every active phase.
  void accrue(index_t energy, index_t messages, index_t local_ops, Clock c) {
    assert(energy >= 0 && messages >= 0 && local_ops >= 0);
    add(totals_, energy, messages, local_ops, c);
    add(pending_, energy, messages, local_ops, c);
    pending_any_ = true;
  }

  static void add(Metrics& m, index_t energy, index_t messages,
                  index_t local_ops, Clock c) {
    m.energy += energy;
    m.messages += messages;
    m.local_ops += local_ops;
    m.max_clock = Clock::join(m.max_clock, c);
  }

  /// Attributes the pending record to every phase in `active_` and clears
  /// it. Called at every phase transition and before every per-phase
  /// read, so the active set is the one every pending event was charged
  /// under. Any event, even one of zero value (op(0), observing a zero
  /// clock), marks the active phases touched. `const` because the read
  /// paths are; everything it writes is `mutable`.
  void fold_pending() const;

  /// The per-phase record for `id`, marking it as touched (= it will
  /// appear in phases()). Precondition: `id` is on the phase stack, so the
  /// per-id tables were sized by begin_phase. Callers mutate the returned
  /// record, so this is the phases()-cache invalidation point.
  Metrics& slot(PhaseId id) const {
    ++phases_version_;
    if (touched_flag_[id] == 0) {
      touched_flag_[id] = 1;
      touched_.push_back(id);
    }
    return phase_totals_[id];
  }

  /// Applies `fn` to every attached sink (per-machine, then global).
  template <class Fn>
  void emit(Fn&& fn) {
    if (trace_ != nullptr) fn(*trace_);
    if (global_trace_ != nullptr && global_trace_ != trace_) {
      fn(*global_trace_);
    }
  }

  Metrics totals_{};

  // The attribution engine. `active_` is the precomputed set of distinct
  // phase ids currently on the stack, ordered by the stack position of
  // each id's first (outermost) occurrence; `stack_count_[id]` counts the
  // occurrences of `id` on the stack. begin/end_phase maintain both in
  // O(1). Events accrue into `pending_` alone; fold_pending() adds it to
  // each distinct active phase exactly once, with no dedup scan, whenever
  // `active_` is about to change or a per-phase record is read. All
  // id-indexed tables are sized to the PhaseRegistry on demand at phase
  // entry; per-phase Metrics live in a deque so references handed out by
  // phase() stay valid as the id space grows.
  std::vector<PhaseId> phase_stack_;
  std::vector<PhaseId> active_;
  std::vector<index_t> stack_count_;
  mutable Metrics pending_{};
  mutable bool pending_any_{false};
  mutable std::deque<Metrics> phase_totals_;
  mutable std::vector<char> touched_flag_;
  mutable std::vector<PhaseId> touched_;

  // phases() cache: rebuilt when phases_version_ (bumped on any per-phase
  // record mutation — slot() and reset()) outruns the cached version.
  mutable std::uint64_t phases_version_{0};
  mutable std::map<std::string, Metrics> phases_cache_;
  mutable std::uint64_t phases_cache_version_{~std::uint64_t{0}};

  TraceSink* trace_{nullptr};

  static TraceSink* global_trace_;
};

}  // namespace scm
