#include "spatial/congestion.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

namespace scm {

namespace {

/// Direction codes of the LinkLoad slots; dimension-ordered routing only
/// ever emits row steps (up/down) before column steps (left/right).
enum : std::uint8_t { kUp = 0, kDown = 1, kLeft = 2, kRight = 3 };

/// The directed unit link leaving `from` in direction `dir`.
Link link_of(Coord from, std::uint8_t dir) {
  Coord to = from;
  switch (dir) {
    case kUp: to.row -= 1; break;
    case kDown: to.row += 1; break;
    case kLeft: to.col -= 1; break;
    default: to.col += 1; break;
  }
  return Link{from, to};
}

std::string phase_label(PhaseId id) {
  return id == kNoPhase ? std::string("<top>")
                        : PhaseRegistry::instance().name(id);
}

/// Adds one unit to every directed link of the dimension-ordered route
/// from -> to in `grid` (rows first, then columns, matching LoadMap; a
/// message of Manhattan distance d crosses exactly d links), counting
/// 0->1 slots into `links` and raising `peak` to the largest slot.
void route_into(TileGrid<std::array<index_t, 4>>& grid, Coord from, Coord to,
                index_t& links, index_t& peak) {
  index_t touched = links;
  index_t top = peak;
  const auto leg = [&](Coord start, index_t dr, index_t dc, index_t n,
                       std::uint8_t dir) {
    grid.walk(start, dr, dc, n, [&](std::array<index_t, 4>& slots) {
      index_t& slot = slots[dir];
      if (slot++ == 0) ++touched;
      top = std::max(top, slot);
    });
  };
  const bool down = to.row > from.row;
  const bool right = to.col > from.col;
  leg(from, down ? 1 : -1, 0, std::abs(to.row - from.row),
      down ? kDown : kUp);
  leg(Coord{to.row, from.col}, 0, right ? 1 : -1,
      std::abs(to.col - from.col), right ? kRight : kLeft);
  links = touched;
  peak = top;
}

}  // namespace

std::string Link::str() const {
  std::ostringstream os;
  os << '[' << from.row << ',' << from.col << "]->[" << to.row << ','
     << to.col << ']';
  return os.str();
}

template <class F>
void CongestionMap::for_each_link(F&& f) const {
  load_.for_each([&f](Coord from, const std::array<index_t, 4>& slots) {
    for (std::uint8_t dir = 0; dir < 4; ++dir) {
      if (slots[dir] != 0) f(link_of(from, dir), slots[dir]);
    }
  });
}

CongestionMap::Bucket& CongestionMap::current_bucket() {
  if (cached_bucket_ != nullptr) return *cached_bucket_;
  const PhaseId id = bucket();
  const auto [it, inserted] = phases_.try_emplace(id);
  if (inserted) phase_order_.push_back(id);
  cached_bucket_ = &it->second;
  return *cached_bucket_;
}

void CongestionMap::route(Coord from, Coord to) {
  const index_t distance = manhattan(from, to);
  if (distance == 0) return;  // crosses no link, opens no bucket
  route_into(load_, from, to, links_, max_link_load_);
  total_ += distance;

  Bucket& b = current_bucket();
  const index_t old_peak = b.peak;
  route_into(b.load, from, to, b.links, b.peak);
  b.occupancy += distance;
  // The congested clock is the sum of bucket peaks; maintain it
  // incrementally as each bucket's peak rises.
  congested_clock_ += b.peak - old_peak;
}

void CongestionMap::on_message(Coord from, Coord to, index_t distance) {
  assert(distance == manhattan(from, to));
  (void)distance;
  ++messages_;
  ++ticks_;
  route(from, to);
}

void CongestionMap::on_send_bulk(std::span<const MessageEvent> batch) {
  for (const MessageEvent& e : batch) {
    if (e.distance == 0) continue;
    ++messages_;
    ++ticks_;
    route(e.from, e.to);
  }
}

void CongestionMap::record_sample() {
  // Counter tracks render step changes; consecutive identical samples
  // add nothing, so phase-transition storms with no traffic stay cheap.
  if (!samples_.empty() &&
      samples_.back().max_link_load == max_link_load_ &&
      samples_.back().congested_clock == congested_clock_) {
    return;
  }
  samples_.push_back(CounterSample{ticks_, max_link_load_, congested_clock_});
}

void CongestionMap::on_phase_enter(PhaseId id) {
  record_sample();
  stack_.push_back(id);
  cached_bucket_ = nullptr;
}

void CongestionMap::on_phase_exit(PhaseId id) {
  (void)id;
  if (stack_.empty()) return;  // imbalance is the checker's to report
  record_sample();
  stack_.pop_back();
  cached_bucket_ = nullptr;
}

void CongestionMap::on_reset() { clear(); }

void CongestionMap::clear() {
  load_.clear();
  links_ = 0;
  total_ = 0;
  messages_ = 0;
  max_link_load_ = 0;
  congested_clock_ = 0;
  ticks_ = 0;
  phases_.clear();
  phase_order_.clear();
  cached_bucket_ = nullptr;
  samples_.clear();
  // stack_ deliberately survives: open PhaseScopes keep attributing
  // across Machine::reset, exactly like the Profiler.
}

index_t CongestionMap::occupancy(Link link) const {
  std::uint8_t dir = 0;
  const index_t dr = link.to.row - link.from.row;
  const index_t dc = link.to.col - link.from.col;
  if (dr == -1 && dc == 0) {
    dir = kUp;
  } else if (dr == 1 && dc == 0) {
    dir = kDown;
  } else if (dr == 0 && dc == -1) {
    dir = kLeft;
  } else if (dr == 0 && dc == 1) {
    dir = kRight;
  } else {
    return 0;  // not a unit link
  }
  const std::array<index_t, 4>* slots = load_.find(link.from);
  return slots == nullptr ? 0 : (*slots)[dir];
}

std::vector<std::pair<Link, index_t>> CongestionMap::hotspot_links(
    std::size_t k) const {
  std::vector<std::pair<Link, index_t>> all;
  all.reserve(static_cast<std::size_t>(links_));
  for_each_link([&all](Link link, index_t count) {
    all.push_back({link, count});
  });
  k = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                    all.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  all.resize(k);
  return all;
}

index_t CongestionMap::percentile(double p) const {
  if (links_ == 0) return 0;
  std::vector<index_t> loads;
  loads.reserve(static_cast<std::size_t>(links_));
  for_each_link([&loads](Link, index_t count) { loads.push_back(count); });
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the smallest occupancy l such that at least
  // ceil(p% * n) touched links carry <= l.
  const auto rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(p / 100.0 * static_cast<double>(loads.size()))));
  auto nth = loads.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(loads.begin(), nth, loads.end());
  return *nth;
}

std::vector<std::pair<Link, index_t>> CongestionMap::sorted_links() const {
  std::vector<std::pair<Link, index_t>> all;
  all.reserve(static_cast<std::size_t>(links_));
  for_each_link([&all](Link link, index_t count) {
    all.push_back({link, count});
  });
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  return all;
}

std::vector<index_t> CongestionMap::occupancy_multiset() const {
  std::vector<index_t> values;
  values.reserve(static_cast<std::size_t>(links_));
  for_each_link([&values](Link, index_t count) { values.push_back(count); });
  std::sort(values.begin(), values.end());
  return values;
}

std::vector<CongestionMap::PhaseCongestion> CongestionMap::phase_congestion()
    const {
  std::vector<PhaseCongestion> out;
  out.reserve(phase_order_.size());
  for (const PhaseId id : phase_order_) {
    const Bucket& b = phases_.at(id);
    out.push_back(PhaseCongestion{id, b.occupancy, b.links, b.peak});
  }
  return out;
}

index_t CongestionMap::phase_peak(PhaseId id) const {
  const auto it = phases_.find(id);
  return it == phases_.end() ? 0 : it->second.peak;
}

std::string CongestionMap::ascii_report(std::size_t hotspots) const {
  std::ostringstream os;
  os << "link congestion (dimension-ordered routing, directed unit links)\n";
  os << "  messages " << messages_ << ", occupancy " << total_
     << " (= total Manhattan distance), links " << links() << "\n";
  os << "  max link load " << max_link_load_ << ", p50 " << percentile(50.0)
     << ", p95 " << percentile(95.0) << ", p99 " << percentile(99.0)
     << ", congested clock " << congested_clock_ << "\n";
  const auto spots = hotspot_links(hotspots);
  if (!spots.empty()) {
    os << "  hotspot links:\n";
    for (const auto& [link, count] : spots) {
      os << "    " << link.str() << "  " << count << "\n";
    }
  }
  const auto phases = phase_congestion();
  if (!phases.empty()) {
    os << "  phases (innermost attribution; congested clock = sum of "
          "peaks):\n";
    for (const PhaseCongestion& pc : phases) {
      const double mean =
          pc.links == 0 ? 0.0
                        : static_cast<double>(pc.occupancy) /
                              static_cast<double>(pc.links);
      std::string label = phase_label(pc.phase);
      if (label.size() > 30) label.resize(30);
      os << "    " << label;
      for (std::size_t i = label.size(); i < 32; ++i) os << ' ';
      os << "peak " << pc.peak << ", links " << pc.links << ", mean "
         << static_cast<index_t>(mean * 100.0 + 0.5) / 100.0
         << ", occupancy " << pc.occupancy << "\n";
    }
  }
  return os.str();
}

std::string CongestionMap::heatmap(index_t max_side) const {
  // Per-cell pressure: the maximum occupancy over the directed links
  // leaving the cell.
  std::vector<std::pair<Coord, index_t>> cells;
  load_.for_each([&cells](Coord at, const std::array<index_t, 4>& slots) {
    const index_t v = *std::max_element(slots.begin(), slots.end());
    if (v != 0) cells.push_back({at, v});
  });
  return detail::ascii_heatmap(cells, max_side, "link heatmap",
                               ", max outgoing-link load");
}

std::string CongestionMap::chrome_counter_json() const {
  // One "C" (counter) event per recorded sample over the same virtual
  // tick axis the Profiler's phase trace uses (1 us = 1 charged event),
  // plus a closing sample so the track always reaches the final tick.
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
        "\"args\":{\"name\":\"scm simulated run\"}}";
  const auto emit = [&os](const CounterSample& s) {
    os << ",\n{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":" << s.tick
       << ",\"name\":\"link congestion\",\"args\":{\"max_link_load\":"
       << s.max_link_load << ",\"congested_clock\":" << s.congested_clock
       << "}}";
  };
  for (const CounterSample& s : samples_) emit(s);
  emit(CounterSample{ticks_, max_link_load_, congested_clock_});
  os << "\n]}\n";
  return os.str();
}

}  // namespace scm
