// Equivalence tests for the interned-PhaseId cost-attribution engine.
//
// The Machine attributes every charged event to each *distinct* active
// phase name exactly once (a phase stacked at every recursion level is not
// double-counted). The engine maintains that set incrementally at phase
// transitions; these tests pin its semantics against an executable
// reference: the original per-event formulation that rescans the name
// stack for first occurrences. Both are driven through identical event
// sequences — nested, repeated, reset-spanning, and randomized — and must
// produce identical per-phase Metrics.
#include "spatial/machine.hpp"
#include "spatial/phase.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

namespace scm {
namespace {

// The pre-interning attribution semantics, restated directly from the
// model: an event is charged to phase_stack[i] iff no earlier stack entry
// carries the same name, and is attributed at once (the Machine defers it
// to the next transition or query). Every attributed event touches its
// phases — even one of zero value — and touched names are recorded in
// first-touch order. O(depth^2) per event — fine as a test oracle.
class ReferenceAttribution {
 public:
  void begin(const std::string& name) { stack_.push_back(name); }

  void end() {
    if (!stack_.empty()) stack_.pop_back();
  }

  void charge(index_t energy, index_t messages) {
    attribute([&](Metrics& pm) {
      pm.energy += energy;
      pm.messages += messages;
    });
  }

  void op(index_t n) {
    attribute([&](Metrics& pm) { pm.local_ops += n; });
  }

  void observe(Clock c) {
    attribute(
        [&](Metrics& pm) { pm.max_clock = Clock::join(pm.max_clock, c); });
  }

  // Mirrors Machine::reset: records clear, the stack survives.
  void reset() {
    totals_.clear();
    order_.clear();
  }

  [[nodiscard]] const std::map<std::string, Metrics>& phases() const {
    return totals_;
  }

  [[nodiscard]] const std::vector<std::string>& touch_order() const {
    return order_;
  }

 private:
  template <class Fn>
  void attribute(Fn&& fn) {
    for (std::size_t i = 0; i < stack_.size(); ++i) {
      if (!first_occurrence(i)) continue;
      const auto [it, inserted] = totals_.try_emplace(stack_[i]);
      if (inserted) order_.push_back(stack_[i]);
      fn(it->second);
    }
  }

  [[nodiscard]] bool first_occurrence(std::size_t i) const {
    for (std::size_t j = 0; j < i; ++j) {
      if (stack_[j] == stack_[i]) return false;
    }
    return true;
  }

  std::vector<std::string> stack_;
  std::map<std::string, Metrics> totals_;
  std::vector<std::string> order_;
};

// The Machine's per-phase read paths. Each one must fold charges made since
// the last transition, so the tests query through one of them *first*.
enum class Query { kPhases, kPhaseByName, kPhaseById, kTouchedPhases };
constexpr Query kQueries[] = {Query::kPhases, Query::kPhaseByName,
                              Query::kPhaseById, Query::kTouchedPhases};

// Drives a Machine and the reference through the same event stream. Sends
// use fresh unit-distance processor pairs so the harness-attached
// conformance checker sees a model-clean trace (one arrival per cell).
class Harness {
 public:
  void begin(const std::string& name) {
    machine.begin_phase(name);
    ref.begin(name);
  }

  void end() {
    machine.end_phase();
    ref.end();
  }

  void send() {
    const Clock arrival =
        machine.send({0, next_col_}, {1, next_col_}, Clock{});
    ++next_col_;
    // Machine::send = charge(distance, 1) + observe(arrival).
    ref.charge(1, 1);
    ref.observe(arrival);
  }

  void op(index_t n) {
    machine.op(n);
    ref.op(n);
  }

  void observe(Clock c) {
    machine.observe(c);
    ref.observe(c);
  }

  void reset() {
    machine.reset();
    ref.reset();
  }

  // Compares every read path with the reference, querying through
  // `first` before any other so that accessor alone must fold the pending
  // charges.
  void expect_equivalent(const std::string& label,
                         Query first = Query::kPhases) const {
    switch (first) {
      case Query::kPhases:
        EXPECT_EQ(machine.phases(), ref.phases()) << label;
        break;
      case Query::kPhaseByName:
        for (const auto& [name, want] : ref.phases()) {
          EXPECT_EQ(machine.phase(name), want) << label << " " << name;
        }
        break;
      case Query::kPhaseById:
        for (const auto& [name, want] : ref.phases()) {
          EXPECT_EQ(machine.phase(PhaseRegistry::instance().find(name)), want)
              << label << " " << name;
        }
        break;
      case Query::kTouchedPhases:
        EXPECT_EQ(touched_names(), ref.touch_order()) << label;
        break;
    }
    EXPECT_EQ(touched_names(), ref.touch_order()) << label;
    EXPECT_EQ(machine.phases(), ref.phases()) << label;
  }

  [[nodiscard]] std::vector<std::string> touched_names() const {
    std::vector<std::string> names;
    for (const PhaseId id : machine.touched_phases()) {
      names.push_back(PhaseRegistry::instance().name(id));
    }
    return names;
  }

  Machine machine;
  ReferenceAttribution ref;

 private:
  index_t next_col_{0};
};

TEST(PhaseAttribution, NestedScopesMatchReference) {
  Harness h;
  h.begin("sort");
  h.send();
  h.begin("merge");
  h.send();
  h.op(3);
  h.begin("merge/base");
  h.send();
  h.end();
  h.send();
  h.end();
  h.send();
  h.end();
  h.expect_equivalent("nested");
  EXPECT_EQ(h.machine.phase("sort").energy, 5);
  EXPECT_EQ(h.machine.phase("merge").energy, 3);
  EXPECT_EQ(h.machine.phase("merge/base").energy, 1);
}

TEST(PhaseAttribution, RepeatedRecursiveNamesCountOnce) {
  Harness h;
  // mergesort2d-style recursion: the same name at every level, with a
  // distinct step name interleaved, 16 levels deep.
  const int depth = 16;
  for (int d = 0; d < depth; ++d) {
    h.begin("mergesort2d");
    h.send();
    h.begin("merge/step");
    h.send();
  }
  h.op(7);
  for (int d = 0; d < depth; ++d) {
    h.end();
    h.end();
  }
  h.expect_equivalent("repeated");
  // Every one of the 2*depth sends lies inside both distinct names.
  EXPECT_EQ(h.machine.phase("mergesort2d").energy, 2 * depth);
  EXPECT_EQ(h.machine.phase("merge/step").energy, 2 * depth - 1);
  EXPECT_EQ(h.machine.phase("mergesort2d").local_ops, 7);
}

TEST(PhaseAttribution, ResetSpanningScopeKeepsAttributing) {
  Harness h;
  h.begin("outer");
  h.send();
  h.send();
  h.reset();
  EXPECT_TRUE(h.machine.phases().empty());
  // The scope survived the reset: post-reset charges attribute to it.
  h.send();
  h.expect_equivalent("post-reset");
  EXPECT_EQ(h.machine.phase("outer").energy, 1);
  EXPECT_EQ(h.machine.phase("outer").messages, 1);
  h.end();
  h.expect_equivalent("after-close");
}

TEST(PhaseAttribution, RandomizedSequencesMatchReference) {
  const std::vector<std::string> names = {"sort", "merge", "merge/step",
                                          "scan", "base"};
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    Harness h;
    std::mt19937_64 rng(seed);
    int depth = 0;
    for (int step = 0; step < 2000; ++step) {
      switch (rng() % 10) {
        case 0:
        case 1:
        case 2:
          if (depth < 40) {
            h.begin(names[rng() % names.size()]);
            ++depth;
          }
          break;
        case 3:
        case 4:
          if (depth > 0) {
            h.end();
            --depth;
          }
          break;
        case 5:
        case 6:
        case 7:
          h.send();
          break;
        case 8:
          h.op(static_cast<index_t>(rng() % 5));
          break;
        default:
          h.observe(Clock{static_cast<index_t>(rng() % 8),
                          static_cast<index_t>(rng() % 64)});
          break;
      }
      if (step % 125 == 124) {
        h.expect_equivalent("mid-run", kQueries[(step / 125) % 4]);
      }
    }
    while (depth > 0) {
      h.end();
      --depth;
    }
    h.expect_equivalent("seed " + std::to_string(seed));
  }
}

TEST(PhaseAttribution, MidScopeQueriesSeeChargesWithoutATransition) {
  for (const Query query : kQueries) {
    Harness h;
    h.begin("mid/outer");
    h.send();
    h.begin("mid/inner");
    h.send();
    h.op(2);
    // No phase transition since the charges: the query alone must fold.
    h.expect_equivalent("inner open", query);
    h.send();
    h.observe(Clock{9, 40});
    h.expect_equivalent("after more charges", query);
    // A query with nothing pending changes nothing.
    h.expect_equivalent("repeated query", query);
    h.end();
    h.send();
    h.expect_equivalent("outer only", query);
    h.end();
    h.expect_equivalent("closed", query);
  }
}

TEST(PhaseAttribution, PhaseReferenceTracksPendingChargesOnQuery) {
  Machine m;
  Machine::PhaseScope scope(m, "live");
  m.send({0, 0}, {0, 1}, Clock{});
  const Metrics& record = m.phase("live");
  EXPECT_EQ(record.energy, 1);
  m.send({0, 2}, {0, 5}, Clock{});
  // The held reference is current as of the last query: the next query
  // (through any read path) folds the pending send into it.
  EXPECT_EQ(m.phase(PhaseRegistry::instance().find("live")).energy, 4);
  EXPECT_EQ(record.energy, 4);
  EXPECT_EQ(record.messages, 2);
}

TEST(PhaseAttribution, ZeroValueEventsMarkPhasesTouched) {
  for (const Query query : kQueries) {
    Harness h;
    h.begin("zero/op");
    h.op(0);
    h.expect_equivalent("op(0)", query);
    h.end();
    h.begin("zero/observe");
    h.observe(Clock{});
    h.expect_equivalent("observe(Clock{})", query);
    h.end();
    // An entered phase with no event at all is not touched.
    h.begin("zero/never");
    h.end();
    h.expect_equivalent("no event", query);
  }
  Machine m;
  {
    Machine::PhaseScope a(m, "zero/op");
    m.op(0);
  }
  {
    Machine::PhaseScope b(m, "zero/observe");
    m.observe(Clock{});
  }
  {
    Machine::PhaseScope c(m, "zero/never");
  }
  EXPECT_EQ(m.phases().size(), 2U);
  EXPECT_EQ(m.phases().at("zero/op"), Metrics{});
  EXPECT_EQ(m.phases().at("zero/observe"), Metrics{});
  EXPECT_EQ(m.phases().count("zero/never"), 0U);
}

TEST(PhaseAttribution, ResetDiscardsPendingChargesOfASpanningScope) {
  for (const Query query : kQueries) {
    Harness h;
    h.begin("reset/outer");
    h.begin("reset/inner");
    // Charged and never queried: still pending when the reset lands.
    h.send();
    h.op(5);
    h.observe(Clock{30, 300});
    h.reset();
    h.expect_equivalent("right after reset", query);
    EXPECT_TRUE(h.machine.touched_phases().empty());
    h.send();
    h.expect_equivalent("charged after reset", query);
    EXPECT_EQ(h.machine.phase("reset/outer").energy, 1);
    EXPECT_EQ(h.machine.phase("reset/inner").max_clock, (Clock{1, 1}));
    h.end();
    h.op(1);
    h.reset();
    h.end();
    h.expect_equivalent("reset then close", query);
    EXPECT_TRUE(h.machine.phases().empty());
  }
}

TEST(PhaseAttribution, FirstTouchOrderUnderNestedAndReenteredNames) {
  for (const Query query : kQueries) {
    Harness h;
    // Entered first but charged last: touch order is not entry order.
    h.begin("order/late");
    h.end();
    h.begin("order/a");
    h.begin("order/b");
    // Re-entering names already on the stack adds no new phase.
    h.begin("order/a");
    h.begin("order/b");
    h.send();
    h.expect_equivalent("re-entered", query);
    h.end();
    h.end();
    h.begin("order/c");
    h.begin("order/a");
    h.op(1);
    h.end();
    h.end();
    h.end();
    h.end();
    h.begin("order/late");
    h.begin("order/b");
    h.observe(Clock{2, 2});
    h.end();
    h.end();
    h.expect_equivalent("closed", query);
    EXPECT_EQ(h.touched_names(),
              (std::vector<std::string>{"order/a", "order/b", "order/c",
                                        "order/late"}));
  }
}

TEST(PhaseAttribution, PhaseReferenceIsStableAcrossGrowth) {
  Machine m;
  {
    Machine::PhaseScope scope(m, "stable");
    m.send({0, 0}, {0, 1}, Clock{});
  }
  const Metrics& record = m.phase("stable");
  EXPECT_EQ(record.energy, 1);
  // Interning many new names grows the id-indexed tables; the reference
  // must stay valid (per-phase records never move) and keep tracking.
  for (int i = 0; i < 200; ++i) {
    Machine::PhaseScope scope(m, "growth" + std::to_string(i));
    m.send({1, i}, {2, i}, Clock{});
  }
  {
    Machine::PhaseScope scope(m, "stable");
    m.send({0, 2}, {0, 3}, Clock{});
  }
  EXPECT_EQ(record.energy, 2);
}

TEST(PhaseAttribution, InternedIdsRoundTripAndMatchNameForm) {
  PhaseRegistry& registry = PhaseRegistry::instance();
  const PhaseId id = registry.intern("interned_phase_test");
  EXPECT_EQ(registry.intern("interned_phase_test"), id);
  EXPECT_EQ(registry.find("interned_phase_test"), id);
  EXPECT_EQ(registry.name(id), "interned_phase_test");
  EXPECT_EQ(registry.find("never_interned_phase_name"), kNoPhase);

  // The PhaseId scope form attributes identically to the name form.
  Machine by_name;
  Machine by_id;
  {
    Machine::PhaseScope scope(by_name, "interned_phase_test");
    by_name.send({0, 0}, {0, 2}, Clock{});
  }
  {
    Machine::PhaseScope scope(by_id, id);
    by_id.send({0, 0}, {0, 2}, Clock{});
  }
  EXPECT_EQ(by_name.phases(), by_id.phases());
  EXPECT_EQ(by_id.phase("interned_phase_test").energy, 2);
}

TEST(PhaseAttribution, MachinesAttributeIndependently) {
  // The registry is process-global but records are per-machine.
  Machine a;
  Machine b;
  {
    Machine::PhaseScope sa(a, "shared_name");
    a.send({0, 0}, {0, 1}, Clock{});
    Machine::PhaseScope sb(b, "shared_name");
    b.send({0, 0}, {0, 3}, Clock{});
  }
  EXPECT_EQ(a.phase("shared_name").energy, 1);
  EXPECT_EQ(b.phase("shared_name").energy, 3);
}

}  // namespace
}  // namespace scm
