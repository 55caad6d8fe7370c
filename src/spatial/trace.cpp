#include "spatial/trace.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace scm {

FanoutSink::FanoutSink(std::vector<TraceSink*> sinks) {
  for (TraceSink* s : sinks) add(s);
}

void FanoutSink::add(TraceSink* sink) {
  if (sink != nullptr) sinks_.push_back(sink);
}

void FanoutSink::on_message(Coord from, Coord to, index_t distance) {
  for (TraceSink* s : sinks_) s->on_message(from, to, distance);
}

void FanoutSink::on_send(const MessageEvent& e) {
  for (TraceSink* s : sinks_) s->on_send(e);
}

void FanoutSink::on_send_bulk(std::span<const MessageEvent> batch) {
  for (TraceSink* s : sinks_) s->on_send_bulk(batch);
}

void FanoutSink::on_op(index_t n) {
  for (TraceSink* s : sinks_) s->on_op(n);
}

void FanoutSink::on_birth(Coord at, Clock c) {
  for (TraceSink* s : sinks_) s->on_birth(at, c);
}

void FanoutSink::on_birth_bulk(std::span<const BirthEvent> batch) {
  for (TraceSink* s : sinks_) s->on_birth_bulk(batch);
}

void FanoutSink::on_death(Coord at) {
  for (TraceSink* s : sinks_) s->on_death(at);
}

void FanoutSink::on_death_bulk(std::span<const Coord> batch) {
  for (TraceSink* s : sinks_) s->on_death_bulk(batch);
}

void FanoutSink::on_phase_enter(PhaseId id) {
  for (TraceSink* s : sinks_) s->on_phase_enter(id);
}

void FanoutSink::on_phase_exit(PhaseId id) {
  for (TraceSink* s : sinks_) s->on_phase_exit(id);
}

void FanoutSink::on_reset() {
  for (TraceSink* s : sinks_) s->on_reset();
}

std::string detail::ascii_heatmap(
    const std::vector<std::pair<Coord, index_t>>& cells, index_t max_side,
    const char* title, const char* note) {
  if (cells.empty()) return "(no traffic)\n";
  static const char kLevels[] = " .:-=+*#%@";
  // Bounding box derived here rather than maintained per hop — exporting
  // is cold, the sinks' route walks are the hot path.
  index_t min_row = cells.front().first.row;
  index_t max_row = min_row;
  index_t min_col = cells.front().first.col;
  index_t max_col = min_col;
  for (const auto& [at, v] : cells) {
    min_row = std::min(min_row, at.row);
    max_row = std::max(max_row, at.row);
    min_col = std::min(min_col, at.col);
    max_col = std::max(max_col, at.col);
  }
  const index_t rows = max_row - min_row + 1;
  const index_t cols = max_col - min_col + 1;
  const index_t bucket =
      std::max<index_t>(1, (std::max(rows, cols) + max_side - 1) / max_side);
  const index_t out_rows = (rows + bucket - 1) / bucket;
  const index_t out_cols = (cols + bucket - 1) / bucket;

  std::vector<index_t> grid(static_cast<size_t>(out_rows * out_cols), 0);
  for (const auto& [at, v] : cells) {
    const index_t r = (at.row - min_row) / bucket;
    const index_t c = (at.col - min_col) / bucket;
    index_t& slot = grid[static_cast<size_t>(r * out_cols + c)];
    slot = std::max(slot, v);
  }
  index_t peak = 1;
  for (index_t v : grid) peak = std::max(peak, v);

  std::ostringstream os;
  os << title << " (" << rows << "x" << cols << " cells" << note
     << ", bucket " << bucket << "x" << bucket << ", peak " << peak << ")\n";
  for (index_t r = 0; r < out_rows; ++r) {
    for (index_t c = 0; c < out_cols; ++c) {
      const index_t v = grid[static_cast<size_t>(r * out_cols + c)];
      const auto idx = static_cast<std::size_t>(
          (static_cast<double>(v) / static_cast<double>(peak)) * 9.0);
      os << kLevels[std::min<std::size_t>(idx, 9)];
    }
    os << "\n";
  }
  return os.str();
}

void LoadMap::on_message(Coord from, Coord to, index_t distance) {
  assert(distance == manhattan(from, to));
  (void)distance;
  ++messages_;
  // Dimension-ordered routing: rows first, then columns; one unit of load
  // at every processor on the path, endpoints included.
  index_t cells = cells_;
  index_t peak = max_load_;
  const auto bump = [&](index_t& slot) {
    if (slot++ == 0) ++cells;
    peak = std::max(peak, slot);
  };
  const index_t rows = std::abs(to.row - from.row);
  const index_t cols = std::abs(to.col - from.col);
  const index_t col_step = to.col > from.col ? 1 : -1;
  load_.walk(from, to.row > from.row ? 1 : -1, 0, rows + 1, bump);
  load_.walk(Coord{to.row, from.col + col_step}, 0, col_step, cols, bump);
  cells_ = cells;
  max_load_ = peak;
  total_ += rows + cols + 1;
}

void LoadMap::on_send_bulk(std::span<const MessageEvent> batch) {
  for (const MessageEvent& e : batch) {
    if (e.distance == 0) continue;
    on_message(e.from, e.to, e.distance);
  }
}

index_t LoadMap::load_at(Coord c) const {
  const index_t* slot = load_.find(c);
  return slot == nullptr ? 0 : *slot;
}

std::vector<std::pair<Coord, index_t>> LoadMap::touched() const {
  std::vector<std::pair<Coord, index_t>> cells;
  cells.reserve(static_cast<std::size_t>(cells_));
  load_.for_each([&cells](Coord at, index_t count) {
    if (count != 0) cells.push_back({at, count});
  });
  return cells;
}

std::vector<std::pair<Coord, index_t>> LoadMap::hotspots(
    std::size_t k) const {
  std::vector<std::pair<Coord, index_t>> all = touched();
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      if (a.first.row != b.first.row) {
                        return a.first.row < b.first.row;
                      }
                      return a.first.col < b.first.col;
                    });
  all.resize(k);
  return all;
}

index_t LoadMap::percentile(double p) const {
  if (cells_ == 0) return 0;
  std::vector<index_t> loads;
  loads.reserve(static_cast<std::size_t>(cells_));
  for (const auto& [at, count] : touched()) loads.push_back(count);
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the smallest load l such that at least ceil(p% * n)
  // touched processors carry <= l.
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(p / 100.0 * static_cast<double>(loads.size()))));
  auto nth = loads.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(loads.begin(), nth, loads.end());
  return *nth;
}

double LoadMap::imbalance() const {
  if (cells_ == 0) return 0.0;
  const double mean =
      static_cast<double>(total_) / static_cast<double>(cells_);
  double var = 0.0;
  for (const auto& [at, count] : touched()) {
    const double d = static_cast<double>(count) - mean;
    var += d * d;
  }
  var /= static_cast<double>(cells_);
  return mean == 0.0 ? 0.0 : std::sqrt(var) / mean;
}

std::string LoadMap::heatmap(index_t max_side) const {
  return detail::ascii_heatmap(touched(), max_side, "load heatmap", "");
}

void LoadMap::clear() {
  load_.clear();
  cells_ = 0;
  total_ = 0;
  messages_ = 0;
  max_load_ = 0;
}

}  // namespace scm
