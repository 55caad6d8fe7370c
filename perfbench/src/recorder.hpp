// Chunked record-and-replay of a Machine's event stream.
//
// The traced run attaches a ChunkedRecorder to the live Machine. It buffers
// the stream (scalar sends, send_bulk batches, ops, births, deaths, phase
// transitions) up to a bounded number of entries; each full chunk is handed
// to a flush callback that replays it into a persistent shadow Machine and
// into each sink under test, and is then cleared. Memory stays bounded on
// streams of ~10^8 events, and every layer is timed from outside through
// its public entry points (Machine::send/send_bulk/begin_phase/end_phase
// and the TraceSink hooks) with no instrumentation inside the simulator.
#pragma once

#include "spatial/machine.hpp"
#include "spatial/trace.hpp"

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Installs `sink` as the process-global trace sink for one scope and
/// restores the previous one on exit.
class ScopedGlobalTrace {
 public:
  explicit ScopedGlobalTrace(scm::TraceSink* sink)
      : prev_(scm::Machine::global_trace()) {
    scm::Machine::set_global_trace(sink);
  }
  ~ScopedGlobalTrace() { scm::Machine::set_global_trace(prev_); }
  ScopedGlobalTrace(const ScopedGlobalTrace&) = delete;
  ScopedGlobalTrace& operator=(const ScopedGlobalTrace&) = delete;

 private:
  scm::TraceSink* prev_;
};

/// One recorded event. Batch payloads live in the chunk's side buffers at
/// [begin, begin + count); kOp keeps its operation count in `count`.
struct Event {
  enum class Kind : std::uint8_t {
    kSend,
    kSendBulk,
    kOp,
    kBirth,
    kBirthBulk,
    kDeath,
    kDeathBulk,
    kPhaseEnter,
    kPhaseExit,
    kReset,
  };
  Kind kind{Kind::kSend};
  /// kSendBulk only: the batch was charged inside a ScopedUnorderedDelivery
  /// scope. The IndependenceChecker reads that process-global state, so a
  /// replay must re-create it around the batch.
  bool exempt{false};
  scm::PhaseId phase{scm::kNoPhase};
  std::size_t begin{0};
  std::size_t count{0};
};

/// A bounded slice of a recorded stream.
struct Chunk {
  std::vector<Event> events;
  std::vector<scm::MessageEvent> messages;
  std::vector<scm::BirthEvent> births;
  std::vector<scm::Coord> deaths;

  /// Buffered entries: events plus batch payload entries.
  [[nodiscard]] std::size_t entries() const {
    return events.size() + messages.size() + births.size() + deaths.size();
  }
  void clear();
};

/// Replays `chunk` into `m` through the Machine's public charging API, in
/// stream order. send_bulk refills each entry's distance and arrival in
/// place with the values the live machine computed.
void replay(scm::Machine& m, Chunk& chunk);

/// Replays only the chunk's phase transitions into `m`.
void replay_phases(scm::Machine& m, const Chunk& chunk);

/// Delivers `chunk` to `sink` exactly as a Machine emits it: on_message then
/// on_send per scalar send, one on_send_bulk per batch (inside a
/// ScopedUnorderedDelivery when the live batch was exempt), and so on.
void replay(scm::TraceSink& sink, const Chunk& chunk);

/// Exact event counts of a recorded stream.
struct StreamCounts {
  std::uint64_t scalar_sends{0};
  std::uint64_t bulk_batches{0};
  std::uint64_t bulk_messages{0};  ///< charged (distance > 0) batch entries
  std::uint64_t op_events{0};
  std::uint64_t phase_enters{0};
  std::uint64_t births{0};
  std::uint64_t deaths{0};
  std::uint64_t chunks{0};

  friend bool operator==(const StreamCounts&, const StreamCounts&) = default;
};

/// TraceSink that records a Machine's stream in chunks of at most `limit`
/// entries. Before an event is buffered, the pending chunk is flushed if
/// the event would push it past the limit, so a batch is never split; a
/// batch larger than the limit forms a chunk of its own. The global trace
/// sink is detached while the callback runs, so replaying into a shadow
/// Machine never echoes into the live run's global sink.
class ChunkedRecorder final : public scm::TraceSink {
 public:
  using Flush = std::function<void(Chunk&)>;

  ChunkedRecorder(std::size_t limit, Flush flush);

  void on_message(scm::Coord from, scm::Coord to,
                  scm::index_t distance) override;
  void on_send(const scm::MessageEvent& e) override;
  void on_send_bulk(std::span<const scm::MessageEvent> batch) override;
  void on_op(scm::index_t n) override;
  void on_birth(scm::Coord at, scm::Clock c) override;
  void on_birth_bulk(std::span<const scm::BirthEvent> batch) override;
  void on_death(scm::Coord at) override;
  void on_death_bulk(std::span<const scm::Coord> batch) override;
  void on_phase_enter(scm::PhaseId id) override;
  void on_phase_exit(scm::PhaseId id) override;
  void on_reset() override;

  /// Flushes the pending partial chunk. Call once the recorded run ends.
  void finish();

  [[nodiscard]] const StreamCounts& counts() const { return counts_; }

  /// Host seconds spent inside the flush callback so far.
  [[nodiscard]] double flush_seconds() const { return flush_s_; }

 private:
  /// Flushes the pending chunk if `entries` more would exceed the limit.
  void make_room(std::size_t entries);
  void flush();

  std::size_t limit_;
  Flush flush_fn_;
  Chunk chunk_;
  StreamCounts counts_;
  double flush_s_{0.0};
};

}  // namespace perfbench
