// Link-level congestion observability for the Spatial Computer Model.
//
// The SCM prices a message only by its Manhattan distance: bandwidth is
// modelled as unbounded and no two messages ever contend. Real spatial
// hardware (the paper's WSE target included) stalls on *link* contention —
// mapping-evaluation work (Sethi; Wu & Liu) shows that placement-dependent
// congestion, not raw distance, dominates real mapping quality. The
// LoadMap sink already counts per-processor traffic; this module refines
// that to the network's actual unit of contention, the directed link
// between adjacent processors.
//
// The CongestionMap TraceSink decomposes every charged message into unit
// hops under the same deterministic dimension-ordered routing LoadMap uses
// (rows first, then columns) and tracks:
//
//   * per-link occupancy totals — a message of Manhattan distance d
//     traverses exactly d links, so the summed occupancy over all links
//     equals the summed message distance, i.e. Metrics::energy (the
//     paper's energy metric IS total link traversals);
//   * per-phase occupancy maps, attributed to the *innermost* active
//     phase (interned PhaseIds, like the profiler) so the buckets
//     partition the traffic;
//   * per-phase and global peak link load — the congestion-depth proxy
//     the cited mapping papers optimize: traffic on one link serializes,
//     so a phase's peak link occupancy lower-bounds its completion time
//     on bandwidth-limited hardware.
//
// On top of the per-phase peaks sits an **opt-in diagnostic metric**,
// congested_clock() = sum over phase buckets of the bucket's peak link
// occupancy. It is deliberately NOT part of Metrics and never feeds the
// conformance checker: the paper's model has exactly three costs (energy,
// depth, distance) and the checker stays authoritative for them. The
// congested clock is a fourth, strictly separate axis for comparing
// algorithms on congestion robustness (docs/MODEL.md).
//
// Storage: the global and the per-phase link tables are TileGrids
// (spatial/tile_grid.hpp) of four-slot cells, one slot per directed link
// leaving the cell. A route is walked leg by leg through 64-cell tile
// runs, so a unit hop costs one increment and one peak compare per table,
// with one tile hash lookup per 64 hops; distinct-link counts are kept as
// 0->1 counters. Exports visit tiles in sorted order, so no exported byte
// depends on hash-table internals.
//
// Exporters: an ASCII link heatmap and summary report, a Chrome
// trace_event counter track (standalone here; merged into the phase trace
// when embedded in the Profiler), and the "congestion" section of the
// versioned JSON run report (schema v3, docs/OBSERVABILITY.md). Wire-up
// for benches/examples is util::ProfileSession's --congestion /
// --congestion-heatmap flags.
#pragma once

#include "spatial/geometry.hpp"
#include "spatial/phase.hpp"
#include "spatial/tile_grid.hpp"
#include "spatial/trace.hpp"

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace scm {

/// One directed unit link of the grid: the wire from `from` to the
/// adjacent processor `to` (Manhattan distance exactly 1). Dimension-
/// ordered routing decomposes a message into a row-run of vertical links
/// followed by a column-run of horizontal links.
struct Link {
  Coord from{};
  Coord to{};

  friend bool operator==(const Link&, const Link&) = default;

  /// Deterministic report order: by source row, source col, then target.
  friend bool operator<(const Link& a, const Link& b) {
    if (a.from.row != b.from.row) return a.from.row < b.from.row;
    if (a.from.col != b.from.col) return a.from.col < b.from.col;
    if (a.to.row != b.to.row) return a.to.row < b.to.row;
    return a.to.col < b.to.col;
  }

  /// "[r,c]->[r,c]" for diagnostics.
  [[nodiscard]] std::string str() const;
};

/// Accumulates per-link occupancy by routing every charged message along
/// the dimension-ordered Manhattan path (rows first, then columns), with
/// per-phase attribution and an opt-in congested-clock diagnostic.
/// Tracking costs O(distance) per message — the same budget as LoadMap —
/// so it is opt-in observability, never attached by default.
class CongestionMap final : public TraceSink {
 public:
  /// One sample of the Chrome counter track, recorded at every phase
  /// transition (and once at export): the running global peak link load
  /// and congested clock at that virtual tick (ticks count charged
  /// messages observed by this sink).
  struct CounterSample {
    std::uint64_t tick{0};
    index_t max_link_load{0};
    index_t congested_clock{0};
  };

  /// Occupancy summary of one phase bucket (innermost-phase attribution;
  /// kNoPhase collects traffic charged outside any PhaseScope).
  struct PhaseCongestion {
    PhaseId phase{kNoPhase};
    index_t occupancy{0};  ///< summed link traversals in this bucket
    index_t links{0};      ///< distinct links touched
    index_t peak{0};       ///< largest per-link occupancy in this bucket
  };

  // TraceSink hooks.
  void on_message(Coord from, Coord to, index_t distance) override;
  /// Batched counterpart: one virtual dispatch per batch, skipping the
  /// per-message on_message+on_send double dispatch of the default
  /// replay. Per-link occupancy is identical to the replayed stream
  /// (asserted algorithm-by-algorithm through the bulk_ab A/B harness).
  void on_send_bulk(std::span<const MessageEvent> batch) override;
  void on_phase_enter(PhaseId id) override;
  void on_phase_exit(PhaseId id) override;
  /// Machine construction/reset drops the recorded data (an exported
  /// artifact describes the last run); open phase scopes survive, exactly
  /// like Machine::reset and Profiler::clear.
  void on_reset() override;

  /// Charged messages observed.
  [[nodiscard]] index_t messages() const { return messages_; }

  /// Summed occupancy over all links == summed Manhattan distance of all
  /// observed messages. Equals Metrics::energy when the sink observed the
  /// machine's whole life — the link-decomposition identity
  /// tests/test_congestion.cpp asserts on every Table-1 algorithm.
  [[nodiscard]] index_t total_occupancy() const { return total_; }

  /// Number of distinct links that carried at least one unit.
  [[nodiscard]] index_t links() const { return links_; }

  /// Occupancy of one directed link (0 when never traversed).
  [[nodiscard]] index_t occupancy(Link link) const;

  /// Largest per-link occupancy — the global congestion bottleneck.
  [[nodiscard]] index_t max_link_load() const { return max_link_load_; }

  /// The `k` most-loaded links, descending (ties broken by coordinate).
  [[nodiscard]] std::vector<std::pair<Link, index_t>> hotspot_links(
      std::size_t k) const;

  /// Nearest-rank p-th percentile (p in [0, 100]) of the occupancy over
  /// touched links; 0 when no traffic was recorded.
  [[nodiscard]] index_t percentile(double p) const;

  /// Every touched link with its occupancy, sorted by Link order — the
  /// canonical byte-comparable form the A/B harness and the metamorphic
  /// fuzzer oracles diff.
  [[nodiscard]] std::vector<std::pair<Link, index_t>> sorted_links() const;

  /// The occupancy values over touched links, sorted ascending. Grid
  /// translation moves every link but changes no occupancy, so this
  /// multiset is bit-identical under translation (fuzzer oracle).
  [[nodiscard]] std::vector<index_t> occupancy_multiset() const;

  /// Per-phase congestion summaries in first-touch order. A kNoPhase
  /// entry appears iff traffic was charged outside every scope.
  [[nodiscard]] std::vector<PhaseCongestion> phase_congestion() const;

  /// Peak link occupancy attributed to phase `id` (innermost-attribution
  /// bucket); 0 when the phase saw no traffic.
  [[nodiscard]] index_t phase_peak(PhaseId id) const;

  /// The opt-in congestion cost metric: sum over phase buckets of the
  /// bucket's peak link occupancy. Phases execute in sequence and a
  /// link's traffic serializes, so this is a congestion-aware clock
  /// proxy. Diagnostic-only: strictly separate from the paper's three
  /// metrics, never checked by the conformance checker, and always
  /// >= max_link_load() (the peak link's total splits across buckets,
  /// each counted at least at its bucket share).
  [[nodiscard]] index_t congested_clock() const { return congested_clock_; }

  /// Counter-track samples recorded so far (one per phase transition).
  [[nodiscard]] const std::vector<CounterSample>& samples() const {
    return samples_;
  }

  /// Human-readable summary: totals, percentiles, hotspot links, and the
  /// per-phase peak table behind congested_clock().
  [[nodiscard]] std::string ascii_report(std::size_t hotspots = 5) const;

  /// ASCII heatmap of per-cell link pressure over the touched bounding
  /// box: each cell shows the maximum occupancy over the directed links
  /// *leaving* it, downsampled to `max_side` characters per side with the
  /// LoadMap level ramp " .:-=+*#%@".
  [[nodiscard]] std::string heatmap(index_t max_side = 32) const;

  /// Standalone Chrome trace_event JSON: one "C" (counter) event per
  /// recorded sample plus a closing sample at the final tick, counter
  /// name "link congestion" with max_link_load / congested_clock series.
  /// Loads in Perfetto; when the sink is embedded in a Profiler the same
  /// samples ride the profiler's phase trace instead (shared tick axis).
  [[nodiscard]] std::string chrome_counter_json() const;

  /// Drops all recorded data; the mirrored phase stack survives (open
  /// scopes keep attributing, as across Machine::reset).
  void clear();

 private:
  /// Per-cell occupancy of the four directed links leaving the cell,
  /// indexed by direction code (0 up, 1 down, 2 left, 3 right).
  using LinkLoad = TileGrid<std::array<index_t, 4>>;

  /// The bucket traffic is currently attributed to (innermost phase).
  [[nodiscard]] PhaseId bucket() const {
    return stack_.empty() ? kNoPhase : stack_.back();
  }

  /// Per-bucket occupancy map and peak, keyed by innermost PhaseId.
  struct Bucket {
    LinkLoad load;
    index_t links{0};  ///< distinct links touched (0->1 slots)
    index_t occupancy{0};
    index_t peak{0};
  };

  /// The resolved bucket of the innermost phase, fetched lazily and
  /// cached until the next phase transition (unordered_map nodes are
  /// pointer-stable), so the hot path pays one bucket hash lookup per
  /// transition instead of one per unit hop.
  Bucket& current_bucket();

  void route(Coord from, Coord to);
  void record_sample();

  /// Calls f(Link, occupancy) on every touched link, in LinkLoad order.
  template <class F>
  void for_each_link(F&& f) const;

  LinkLoad load_;
  index_t links_{0};  ///< distinct links touched (0->1 slots)
  index_t total_{0};
  index_t messages_{0};
  index_t max_link_load_{0};
  index_t congested_clock_{0};
  std::uint64_t ticks_{0};

  std::unordered_map<PhaseId, Bucket> phases_;
  std::vector<PhaseId> phase_order_;  ///< first-touch order of buckets
  Bucket* cached_bucket_{nullptr};    ///< see current_bucket()

  /// Mirror of the machine's phase stack (survives clear()/on_reset).
  std::vector<PhaseId> stack_;
  std::vector<CounterSample> samples_;
};

}  // namespace scm
