#include "spatial/machine.hpp"

#include "spatial/trace.hpp"

#include <cassert>

namespace scm {

TraceSink* Machine::global_trace_ = nullptr;

// Process-wide A/B switch for the equivalence harness; `true` is the
// production fast path.
bool Machine::bulk_charging_ = true;

void Machine::set_bulk_charging(bool enabled) { bulk_charging_ = enabled; }

bool Machine::bulk_charging() { return bulk_charging_; }

void Machine::set_global_trace(TraceSink* sink) { global_trace_ = sink; }

TraceSink* Machine::global_trace() { return global_trace_; }

Machine::Machine() {
  emit([](TraceSink& s) { s.on_reset(); });
}

Clock Machine::send(Coord from, Coord to, Clock payload) {
  const index_t dist = manhattan(from, to);
  if (dist == 0) return payload;
  const Clock arrival = payload.after_hop(dist);
  accrue(dist, 1, 0, arrival);
  emit([&](TraceSink& s) {
    s.on_message(from, to, dist);
    s.on_send(MessageEvent{from, to, dist, payload, arrival});
  });
  return arrival;
}

void Machine::send_bulk(std::span<MessageEvent> batch) {
  if (batch.empty()) return;
  if (!bulk_charging_) {
    // Scalar reference path: decompose in batch order. The arrival clocks
    // (and filled distances) are the same values the fast path computes.
    for (MessageEvent& e : batch) {
      e.distance = manhattan(e.from, e.to);
      e.arrival = send(e.from, e.to, e.payload);
    }
    return;
  }
  // Tight accumulation loop: no phase-set walk, no virtual dispatch.
  index_t energy = 0;
  index_t messages = 0;
  Clock max{};
  for (MessageEvent& e : batch) {
    const index_t dist = manhattan(e.from, e.to);
    e.distance = dist;
    if (dist == 0) {
      // Zero-length sends are free and unreported, as in the scalar path.
      e.arrival = e.payload;
      continue;
    }
    e.arrival = e.payload.after_hop(dist);
    energy += dist;
    ++messages;
    max = Clock::join(max, e.arrival);
  }
  if (messages == 0) return;
  // One accrual for the whole batch. Identical to the scalar path's
  // per-message accruals because sums commute and Clock::join is an
  // associative/commutative max; the whole batch is attributed to the
  // phase set active at this call (phases cannot change mid-batch by
  // contract).
  accrue(energy, messages, 0, max);
  emit([&](TraceSink& s) { s.on_send_bulk(batch); });
}

void Machine::op(index_t n) {
  assert(n >= 0);
  accrue(0, 0, n, Clock{});
  emit([&](TraceSink& s) { s.on_op(n); });
}

void Machine::op_bulk(index_t n) {
  // local_ops simply sums, so one op(n) is already metrics-identical to
  // any per-iteration decomposition; the bulk name documents intent at
  // batched call sites. Sinks see a single on_op(n) in both modes (the
  // scalar path never reported op granularity either).
  op(n);
}

void Machine::observe(Clock c) { accrue(0, 0, 0, c); }

void Machine::birth(Coord at, Clock c) {
  observe(c);
  emit([&](TraceSink& s) { s.on_birth(at, c); });
}

void Machine::death(Coord at) {
  emit([&](TraceSink& s) { s.on_death(at); });
}

void Machine::birth_bulk(std::span<const BirthEvent> batch) {
  if (batch.empty()) return;
  if (!bulk_charging_) {
    for (const BirthEvent& b : batch) birth(b.at, b.clock);
    return;
  }
  // Births have no per-entry charge, only the clock-join reduction.
  Clock max{};
  for (const BirthEvent& b : batch) max = Clock::join(max, b.clock);
  observe(max);
  emit([&](TraceSink& s) { s.on_birth_bulk(batch); });
}

void Machine::death_bulk(std::span<const Coord> batch) {
  if (batch.empty()) return;
  if (!bulk_charging_) {
    for (const Coord c : batch) death(c);
    return;
  }
  emit([&](TraceSink& s) { s.on_death_bulk(batch); });
}

void Machine::fold_pending() const {
  if (!pending_any_) return;
  for (const PhaseId id : active_) {
    Metrics& pm = slot(id);
    pm.energy += pending_.energy;
    pm.messages += pending_.messages;
    pm.local_ops += pending_.local_ops;
    pm.max_clock = Clock::join(pm.max_clock, pending_.max_clock);
  }
  pending_ = Metrics{};
  pending_any_ = false;
}

void Machine::reset() {
  totals_ = Metrics{};
  // Pending charges predate the reset: discard them with the records.
  pending_ = Metrics{};
  pending_any_ = false;
  ++phases_version_;  // per-phase records mutate: invalidate phases() cache
  for (const PhaseId id : touched_) {
    phase_totals_[id] = Metrics{};
    touched_flag_[id] = 0;
  }
  touched_.clear();
  // Phase stack (and with it the active set) intentionally survives a
  // reset so a PhaseScope spanning the reset keeps attributing costs;
  // resetting mid-scope is unusual but legal.
  emit([](TraceSink& s) { s.on_reset(); });
}

const std::map<std::string, Metrics>& Machine::phases() const {
  fold_pending();
  if (phases_cache_version_ == phases_version_) return phases_cache_;
  const PhaseRegistry& registry = PhaseRegistry::instance();
  phases_cache_.clear();
  for (const PhaseId id : touched_) {
    phases_cache_.emplace(registry.name(id), phase_totals_[id]);
  }
  phases_cache_version_ = phases_version_;
  return phases_cache_;
}

const Metrics& Machine::phase(std::string_view name) const {
  return phase(PhaseRegistry::instance().find(name));
}

const Metrics& Machine::phase(PhaseId id) const {
  static const Metrics kEmpty{};
  fold_pending();
  if (id == kNoPhase || id >= touched_flag_.size() ||
      touched_flag_[id] == 0) {
    return kEmpty;
  }
  return phase_totals_[id];
}

void Machine::begin_phase(std::string_view name) {
  begin_phase(PhaseRegistry::instance().intern(name));
}

void Machine::begin_phase(PhaseId id) {
  assert(id < PhaseRegistry::instance().size());
  if (id >= stack_count_.size()) {
    const std::size_t size = PhaseRegistry::instance().size();
    stack_count_.resize(size, 0);
    touched_flag_.resize(size, 0);
    phase_totals_.resize(size);
  }
  fold_pending();
  phase_stack_.push_back(id);
  // First occurrence on the stack: the phase joins the attribution set.
  // Deeper re-entries of the same name only bump the count, which is the
  // whole recursive-name dedup — moved from per-event to per-transition.
  if (stack_count_[id]++ == 0) active_.push_back(id);
  emit([&](TraceSink& s) { s.on_phase_enter(id); });
}

void Machine::end_phase() {
  if (phase_stack_.empty()) return;
  fold_pending();
  const PhaseId id = phase_stack_.back();
  phase_stack_.pop_back();
  if (--stack_count_[id] == 0) {
    // The popped occurrence was the id's only one, i.e. its first — and
    // first occurrences enter `active_` in stack order, so it is the most
    // recently activated id.
    assert(!active_.empty() && active_.back() == id);
    active_.pop_back();
  }
  emit([&](TraceSink& s) { s.on_phase_exit(id); });
}

Machine::PhaseScope::PhaseScope(Machine& m, std::string_view name)
    : machine_(m) {
  machine_.begin_phase(name);
}

Machine::PhaseScope::PhaseScope(Machine& m, PhaseId id) : machine_(m) {
  machine_.begin_phase(id);
}

Machine::PhaseScope::~PhaseScope() { machine_.end_phase(); }

}  // namespace scm
