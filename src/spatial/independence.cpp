#include "spatial/independence.hpp"

#include "spatial/phase.hpp"
#include "spatial/validate.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace scm {

namespace {

// The simulator is single-threaded, so a plain process-global suffices.
// The reason chain restores on scope exit, giving reports the innermost
// claim.
int g_unordered_depth = 0;
const char* g_unordered_reason = nullptr;

std::ostream& operator<<(std::ostream& os, const MessageEvent& e) {
  return os << e.from << " -> " << e.to << " d=" << e.distance << " clock=("
            << e.payload.depth << "," << e.payload.distance << ")->("
            << e.arrival.depth << "," << e.arrival.distance << ")";
}

void format_violation(std::ostream& os, const IndependenceViolation& v) {
  os << to_string(v.kind) << " in phase \"" << v.phase << "\" at " << v.at
     << ": " << v.detail << "\n";
  if (!v.backtrace.empty()) {
    os << "  message backtrace (oldest first):\n";
    for (const MessageEvent& e : v.backtrace) os << "    " << e << "\n";
  }
}

}  // namespace

const char* to_string(IndependenceViolationKind kind) {
  switch (kind) {
    case IndependenceViolationKind::kWriteWriteConflict:
      return "write-write-conflict";
    case IndependenceViolationKind::kReadWriteHazard:
      return "read-write-hazard";
    case IndependenceViolationKind::kGatherScatterAliasing:
      return "gather-scatter-aliasing";
  }
  return "unknown-violation";
}

index_t IndependenceReport::count(IndependenceViolationKind kind) const {
  index_t n = 0;
  for (const IndependenceViolation& v : violations) {
    if (v.kind == kind) ++n;
  }
  return n;
}

std::string IndependenceReport::str() const {
  std::ostringstream os;
  if (ok()) {
    os << "independence: ok (" << batches << " batches, " << bulk_messages
       << " bulk messages, " << exempted_batches << " exempted, max fan-in "
       << max_fan_in << ")\n";
    return os.str();
  }
  os << "independence: " << violations.size() << " violation(s)\n";
  for (const IndependenceViolation& v : violations) format_violation(os, v);
  return os.str();
}

ScopedUnorderedDelivery::ScopedUnorderedDelivery(const char* reason)
    : prev_reason_(g_unordered_reason) {
  ++g_unordered_depth;
  g_unordered_reason = reason;
}

ScopedUnorderedDelivery::~ScopedUnorderedDelivery() {
  --g_unordered_depth;
  g_unordered_reason = prev_reason_;
}

bool ScopedUnorderedDelivery::active() { return g_unordered_depth > 0; }

const char* ScopedUnorderedDelivery::reason() { return g_unordered_reason; }

bool IndependenceChecker::strict_model_default() {
  return ConformanceChecker::strict_model_default();
}

IndependenceChecker::IndependenceChecker(Config config) : config_(config) {
  ring_.reserve(config_.backtrace_capacity);
}

std::string IndependenceChecker::current_phase() const {
  return phase_stack_.empty()
             ? std::string("<top>")
             : PhaseRegistry::instance().name(phase_stack_.back());
}

void IndependenceChecker::record(IndependenceViolationKind kind, Coord at,
                                 std::string detail) {
  IndependenceViolation v{kind, current_phase(), at, std::move(detail), {}};
  // Unroll the ring buffer oldest-first.
  v.backtrace.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    v.backtrace.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  if (config_.strict) {
    std::ostringstream os;
    os << "SCM_STRICT_MODEL: batch-independence violation\n";
    format_violation(os, v);
    std::fputs(os.str().c_str(), stderr);
    std::fflush(stderr);
    std::abort();
  }
  ++report_.per_phase[v.phase].conflicts;
  report_.violations.push_back(std::move(v));
}

void IndependenceChecker::ring_push(const MessageEvent& e) {
  if (config_.backtrace_capacity == 0) return;
  if (ring_.size() < config_.backtrace_capacity) {
    ring_.push_back(e);
    ring_next_ = ring_.size() % config_.backtrace_capacity;
  } else {
    ring_[ring_next_] = e;
    ring_next_ = (ring_next_ + 1) % ring_.size();
  }
}

void IndependenceChecker::new_epoch() { dead_.clear(); }

void IndependenceChecker::on_message(Coord from, Coord to,
                                     index_t distance) {
  // Scalar sends are inherently ordered; all batch checks key off
  // on_send_bulk. Occupancy is tracked through on_send.
  (void)from;
  (void)to;
  (void)distance;
}

void IndependenceChecker::on_send(const MessageEvent& e) {
  // A scalar arrival revives its destination and joins the backtrace, so
  // batch violations show the surrounding scalar traffic too.
  dead_.erase(e.to);
  ring_push(e);
}

PhaseFootprint& IndependenceChecker::footprint() {
  if (footprint_ == nullptr) footprint_ = &report_.per_phase[current_phase()];
  return *footprint_;
}

void IndependenceChecker::on_send_bulk(
    std::span<const MessageEvent> batch) {
  // One pass over the charged entries tallies per-cell in/out degrees
  // into the (all-zero between batches) degree table, listing each cell
  // on its first touch.
  cells_.clear();
  index_t charged = 0;
  for (const MessageEvent& e : batch) {
    if (e.distance == 0) continue;  // free in the model, never delivered
    ++charged;
    Degrees& to = degrees_.at(e.to);
    if (to.in++ == 0 && to.out == 0) cells_.push_back(e.to);
    Degrees& from = degrees_.at(e.from);
    if (from.out++ == 0 && from.in == 0) cells_.push_back(e.from);
    ring_push(e);
  }
  if (charged == 0) return;

  const bool exempt = ScopedUnorderedDelivery::active();
  PhaseFootprint& fp = footprint();
  ++fp.batches;
  fp.bulk_messages += charged;
  fp.max_batch = std::max(fp.max_batch, charged);
  if (exempt) ++fp.exempted_batches;
  ++report_.batches;
  report_.bulk_messages += charged;
  if (exempt) ++report_.exempted_batches;

  // Deterministic reports: visit conflicted cells in coordinate order.
  std::sort(cells_.begin(), cells_.end(), [](Coord a, Coord b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  for (const Coord c : cells_) {
    Degrees& slot = degrees_.at(c);
    const index_t in = slot.in;
    const index_t out = slot.out;
    slot = Degrees{};  // leave the table all-zero for the next batch
    report_.max_fan_in = std::max(report_.max_fan_in, in);
    fp.max_fan_in = std::max(fp.max_fan_in, in);
    if (in >= 2 && !exempt) {
      std::ostringstream os;
      os << in << " of " << charged
         << " batch members deliver to the same destination; delivery "
            "order within a batch is unspecified. Declare the fan-in "
            "order-free with ScopedUnorderedDelivery / "
            "CommutativeDeliveryScope, or split the round";
      record(IndependenceViolationKind::kWriteWriteConflict, c, os.str());
    }
    if (in >= 1 && out >= 1) {
      if (dead_.contains(c)) {
        std::ostringstream os;
        os << "a batch member sends from a cell another member writes, "
              "and the cell held no value at batch start (retired earlier "
              "this epoch): the read can only observe the in-batch "
              "arrival, so the round depends on intra-batch order (in-"
           << in << "/out-" << out << ")";
        record(IndependenceViolationKind::kReadWriteHazard, c, os.str());
      }
      if (in >= 2 || out >= 2) {
        std::ostringstream os;
        os << "cell relays concentrated traffic within one batch (in-"
           << in << "/out-" << out
           << "): gather and scatter fused into one round. Split into "
              "dependent batches";
        record(IndependenceViolationKind::kGatherScatterAliasing, c,
               os.str());
      }
    }
  }

  // Occupancy update happens after analysis: the hazard rule reasons
  // about the state at batch start.
  if (dead_.empty()) return;
  for (const MessageEvent& e : batch) {
    if (e.distance == 0) continue;
    dead_.erase(e.to);
  }
}

void IndependenceChecker::on_birth(Coord at, Clock c) {
  (void)c;
  dead_.erase(at);
}

void IndependenceChecker::on_death(Coord at) { dead_.insert(at); }

void IndependenceChecker::on_phase_enter(PhaseId id) {
  phase_stack_.push_back(id);
  footprint_ = nullptr;
  new_epoch();
}

void IndependenceChecker::on_phase_exit(PhaseId id) {
  (void)id;  // phase balance is the conformance checker's to report
  if (!phase_stack_.empty()) phase_stack_.pop_back();
  footprint_ = nullptr;
  new_epoch();
}

void IndependenceChecker::on_reset() {
  footprint_ = nullptr;
  new_epoch();
}

}  // namespace scm
