// Execution tracing for the Spatial Computer Model.
//
// Energy is the paper's proxy for total network load; this module makes
// the load *distribution* and the model's state transitions observable. A
// TraceSink attached to a Machine receives every charged message plus the
// model-level lifecycle events (value births/deaths, phase boundaries,
// resets) that the conformance checker (spatial/validate.hpp) enforces
// invariants over. The LoadMap sink routes each message along the
// dimension-ordered (row-first) Manhattan path and counts the traffic
// through every processor, giving per-PE congestion maps, hotspot lists,
// and an ASCII heatmap — the tooling behind the example_traffic_heatmap
// demo comparing the Z-order scan's balanced load against the 1-D tree
// scan's hotspots. Per-processor counts live in a TileGrid
// (spatial/tile_grid.hpp): a unit hop is one array increment, with one
// tile hash lookup per 64 hops of a route leg.
#pragma once

#include "spatial/clock.hpp"
#include "spatial/geometry.hpp"
#include "spatial/phase.hpp"
#include "spatial/tile_grid.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace scm {

/// A charged message with its full cost context, as delivered to
/// TraceSink::on_send. `payload` is the critical-path clock the value
/// carried on departure; `arrival` is its clock on arrival, which for a
/// conforming machine equals payload.after_hop(distance).
///
/// The same struct is the unit of Machine::send_bulk batches: the caller
/// fills from/to/payload and the machine fills distance/arrival.
struct MessageEvent {
  Coord from{};
  Coord to{};
  index_t distance{0};
  Clock payload{};
  Clock arrival{};
};

/// One entry of a Machine::birth_bulk batch (GridArray::announce): a value
/// with clock `clock` becomes resident at `at` without a message.
struct BirthEvent {
  Coord at{};
  Clock clock{};
};

/// Observer of machine events. Attach per-machine with Machine::set_trace,
/// or process-wide with Machine::set_global_trace (how the test harness
/// attaches the conformance checker to every Machine a test creates).
/// Every hook except on_message defaults to a no-op, so sinks implement
/// only what they need.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Called once per charged message (zero-length sends are free and not
  /// reported).
  virtual void on_message(Coord from, Coord to, index_t distance) = 0;

  /// Called once per charged message with the full clock context; fires
  /// together with on_message.
  virtual void on_send(const MessageEvent& e) { (void)e; }

  /// Called once per Machine::send_bulk batch containing at least one
  /// charged message. The batch MAY contain zero-length entries
  /// (distance == 0); those are free in the model and sinks must skip
  /// them, exactly as the scalar path never reports them. The default
  /// implementation replays the batch through on_message/on_send, so a
  /// sink that only implements the scalar hooks observes a stream
  /// indistinguishable from per-message charging; sinks with batchable
  /// counters (Profiler, LoadMap) override it to amortize the dispatch.
  virtual void on_send_bulk(std::span<const MessageEvent> batch) {
    for (const MessageEvent& e : batch) {
      if (e.distance == 0) continue;
      on_message(e.from, e.to, e.distance);
      on_send(e);
    }
  }

  /// `n` local compute operations were recorded (Machine::op). Free in
  /// the model's cost metrics; reported so profilers can attribute local
  /// work per phase.
  virtual void on_op(index_t n) { (void)n; }

  /// A value with clock `c` became resident at processor `at` without a
  /// message (input placement; Machine::birth).
  virtual void on_birth(Coord at, Clock c) {
    (void)at;
    (void)c;
  }

  /// The value resident at `at` was consumed or freed (Machine::death).
  virtual void on_death(Coord at) { (void)at; }

  /// A batch of value births (Machine::birth_bulk, e.g. one per element
  /// of GridArray::announce). Default replays per birth.
  virtual void on_birth_bulk(std::span<const BirthEvent> batch) {
    for (const BirthEvent& b : batch) on_birth(b.at, b.clock);
  }

  /// A batch of value deaths (Machine::death_bulk, e.g. GridArray::retire).
  /// Default replays per death.
  virtual void on_death_bulk(std::span<const Coord> batch) {
    for (const Coord c : batch) on_death(c);
  }

  /// A named cost-attribution phase was entered (Machine::PhaseScope).
  /// Phase events carry interned ids, not names, so sinks on the hot path
  /// (the conformance checker's epoch accounting) never touch strings;
  /// PhaseRegistry::instance().name(id) rematerializes the name when a
  /// sink needs it for reporting.
  virtual void on_phase_enter(PhaseId id) { (void)id; }

  /// The innermost phase was exited.
  virtual void on_phase_exit(PhaseId id) { (void)id; }

  /// The machine's counters were cleared (Machine construction or reset).
  virtual void on_reset() {}
};

/// Forwards every event to an ordered list of sinks, so several observers
/// (e.g. the conformance checker and the batch-independence checker the
/// test harness attaches together) can share one Machine::set_trace /
/// set_global_trace slot. Bulk events are forwarded as bulk events — NOT
/// replayed per message — so each child sees exactly the stream it would
/// see if attached directly. Sinks are not owned; nullptr entries are
/// skipped.
class FanoutSink final : public TraceSink {
 public:
  FanoutSink() = default;
  explicit FanoutSink(std::vector<TraceSink*> sinks);

  /// Appends a sink (ignored when nullptr).
  void add(TraceSink* sink);

  void on_message(Coord from, Coord to, index_t distance) override;
  void on_send(const MessageEvent& e) override;
  void on_send_bulk(std::span<const MessageEvent> batch) override;
  void on_op(index_t n) override;
  void on_birth(Coord at, Clock c) override;
  void on_birth_bulk(std::span<const BirthEvent> batch) override;
  void on_death(Coord at) override;
  void on_death_bulk(std::span<const Coord> batch) override;
  void on_phase_enter(PhaseId id) override;
  void on_phase_exit(PhaseId id) override;
  void on_reset() override;

 private:
  std::vector<TraceSink*> sinks_;
};

namespace detail {

/// Renders per-cell values as the ASCII heatmap LoadMap and CongestionMap
/// share: the bounding box of `cells` (each a touched cell with a positive
/// value, in any order) downsampled to at most `max_side` characters per
/// side, each character the bucket's maximum on the level ramp
/// " .:-=+*#%@" scaled to the peak. The header reads
/// "<title> (RxC cells<note>, bucket BxB, peak P)".
[[nodiscard]] std::string ascii_heatmap(
    const std::vector<std::pair<Coord, index_t>>& cells, index_t max_side,
    const char* title, const char* note);

}  // namespace detail

/// Accumulates per-processor traffic by routing every message along the
/// dimension-ordered Manhattan path (rows first, then columns), counting
/// one unit of load at every processor the message transits (endpoints
/// included).
class LoadMap final : public TraceSink {
 public:
  void on_message(Coord from, Coord to, index_t distance) override;

  /// Batched routing: one virtual dispatch per batch instead of two per
  /// message; per-processor counts are identical to the replayed stream.
  void on_send_bulk(std::span<const MessageEvent> batch) override;

  /// Traffic units that passed through processor `c`.
  [[nodiscard]] index_t load_at(Coord c) const;

  /// Total traffic (= sum of per-processor loads).
  [[nodiscard]] index_t total_load() const { return total_; }

  /// Number of messages observed.
  [[nodiscard]] index_t messages() const { return messages_; }

  /// Largest per-processor load (the congestion bottleneck).
  [[nodiscard]] index_t max_load() const { return max_load_; }

  /// The `k` most-loaded processors, descending (ties broken by
  /// coordinate). O(n log k) via partial sort — cheap for the small k a
  /// report shows even when millions of processors saw traffic.
  [[nodiscard]] std::vector<std::pair<Coord, index_t>> hotspots(
      std::size_t k) const;

  /// Nearest-rank p-th percentile (p in [0, 100]) of the load over the
  /// touched processors; 0 when no traffic was recorded. p = 100 is
  /// max_load(); report summaries use p50/p95/p99.
  [[nodiscard]] index_t percentile(double p) const;

  /// Coefficient of variation of the load over the touched processors —
  /// 0 means perfectly balanced traffic.
  [[nodiscard]] double imbalance() const;

  /// Renders an ASCII heatmap of the touched bounding box, downsampled to
  /// at most `max_side` characters per side. Levels " .:-=+*#%@" scale
  /// linearly with the bucket's maximum load.
  [[nodiscard]] std::string heatmap(index_t max_side = 32) const;

  void clear();

 private:
  /// Every touched processor with its load, in TileGrid::for_each order.
  [[nodiscard]] std::vector<std::pair<Coord, index_t>> touched() const;

  TileGrid<index_t> load_;
  index_t cells_{0};  ///< distinct processors touched (0->1 cells)
  index_t total_{0};
  index_t messages_{0};
  index_t max_load_{0};
};

}  // namespace scm
