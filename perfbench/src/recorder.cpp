#include "recorder.hpp"

#include "spatial/independence.hpp"

#include <chrono>
#include <utility>

namespace perfbench {

using scm::BirthEvent;
using scm::Clock;
using scm::Coord;
using scm::index_t;
using scm::MessageEvent;
using scm::PhaseId;
using Kind = Event::Kind;

void Chunk::clear() {
  events.clear();
  messages.clear();
  births.clear();
  deaths.clear();
}

void replay(scm::Machine& m, Chunk& chunk) {
  for (const Event& e : chunk.events) {
    switch (e.kind) {
      case Kind::kSend: {
        const MessageEvent& s = chunk.messages[e.begin];
        m.send(s.from, s.to, s.payload);
        break;
      }
      case Kind::kSendBulk:
        m.send_bulk(std::span(chunk.messages).subspan(e.begin, e.count));
        break;
      case Kind::kOp:
        m.op(static_cast<index_t>(e.count));
        break;
      case Kind::kBirth: {
        const BirthEvent& b = chunk.births[e.begin];
        m.birth(b.at, b.clock);
        break;
      }
      case Kind::kBirthBulk:
        m.birth_bulk(std::span(chunk.births).subspan(e.begin, e.count));
        break;
      case Kind::kDeath:
        m.death(chunk.deaths[e.begin]);
        break;
      case Kind::kDeathBulk:
        m.death_bulk(std::span(chunk.deaths).subspan(e.begin, e.count));
        break;
      case Kind::kPhaseEnter:
        m.begin_phase(e.phase);
        break;
      case Kind::kPhaseExit:
        m.end_phase();
        break;
      case Kind::kReset:
        m.reset();
        break;
    }
  }
}

void replay_phases(scm::Machine& m, const Chunk& chunk) {
  for (const Event& e : chunk.events) {
    if (e.kind == Kind::kPhaseEnter) {
      m.begin_phase(e.phase);
    } else if (e.kind == Kind::kPhaseExit) {
      m.end_phase();
    }
  }
}

void replay(scm::TraceSink& sink, const Chunk& chunk) {
  for (const Event& e : chunk.events) {
    switch (e.kind) {
      case Kind::kSend: {
        const MessageEvent& s = chunk.messages[e.begin];
        sink.on_message(s.from, s.to, s.distance);
        sink.on_send(s);
        break;
      }
      case Kind::kSendBulk: {
        const auto batch =
            std::span(chunk.messages).subspan(e.begin, e.count);
        if (e.exempt) {
          scm::ScopedUnorderedDelivery scope(
              "replay of a batch charged under an unordered-delivery scope");
          sink.on_send_bulk(batch);
        } else {
          sink.on_send_bulk(batch);
        }
        break;
      }
      case Kind::kOp:
        sink.on_op(static_cast<index_t>(e.count));
        break;
      case Kind::kBirth: {
        const BirthEvent& b = chunk.births[e.begin];
        sink.on_birth(b.at, b.clock);
        break;
      }
      case Kind::kBirthBulk:
        sink.on_birth_bulk(std::span(chunk.births).subspan(e.begin, e.count));
        break;
      case Kind::kDeath:
        sink.on_death(chunk.deaths[e.begin]);
        break;
      case Kind::kDeathBulk:
        sink.on_death_bulk(std::span(chunk.deaths).subspan(e.begin, e.count));
        break;
      case Kind::kPhaseEnter:
        sink.on_phase_enter(e.phase);
        break;
      case Kind::kPhaseExit:
        sink.on_phase_exit(e.phase);
        break;
      case Kind::kReset:
        sink.on_reset();
        break;
    }
  }
}

ChunkedRecorder::ChunkedRecorder(std::size_t limit, Flush flush)
    : limit_(limit), flush_fn_(std::move(flush)) {}

void ChunkedRecorder::make_room(std::size_t entries) {
  if (!chunk_.events.empty() && chunk_.entries() + entries > limit_) flush();
}

void ChunkedRecorder::flush() {
  if (chunk_.events.empty()) return;
  ++counts_.chunks;
  const auto t0 = std::chrono::steady_clock::now();
  {
    ScopedGlobalTrace detached(nullptr);
    flush_fn_(chunk_);
  }
  flush_s_ += std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  chunk_.clear();
}

void ChunkedRecorder::finish() { flush(); }

// Machine::send emits on_message and on_send together; on_send carries the
// whole event, so it alone is recorded.
void ChunkedRecorder::on_message(Coord, Coord, index_t) {}

void ChunkedRecorder::on_send(const MessageEvent& e) {
  make_room(2);
  chunk_.events.push_back(Event{Kind::kSend, false, scm::kNoPhase,
                                chunk_.messages.size(), 1});
  chunk_.messages.push_back(e);
  ++counts_.scalar_sends;
}

void ChunkedRecorder::on_send_bulk(std::span<const MessageEvent> batch) {
  make_room(1 + batch.size());
  chunk_.events.push_back(Event{Kind::kSendBulk,
                                scm::ScopedUnorderedDelivery::active(),
                                scm::kNoPhase, chunk_.messages.size(),
                                batch.size()});
  chunk_.messages.insert(chunk_.messages.end(), batch.begin(), batch.end());
  ++counts_.bulk_batches;
  for (const MessageEvent& e : batch) {
    if (e.distance != 0) ++counts_.bulk_messages;
  }
}

void ChunkedRecorder::on_op(index_t n) {
  make_room(1);
  chunk_.events.push_back(Event{Kind::kOp, false, scm::kNoPhase, 0,
                                static_cast<std::size_t>(n)});
  ++counts_.op_events;
}

void ChunkedRecorder::on_birth(Coord at, Clock c) {
  make_room(2);
  chunk_.events.push_back(
      Event{Kind::kBirth, false, scm::kNoPhase, chunk_.births.size(), 1});
  chunk_.births.push_back(BirthEvent{at, c});
  ++counts_.births;
}

void ChunkedRecorder::on_birth_bulk(std::span<const BirthEvent> batch) {
  make_room(1 + batch.size());
  chunk_.events.push_back(Event{Kind::kBirthBulk, false, scm::kNoPhase,
                                chunk_.births.size(), batch.size()});
  chunk_.births.insert(chunk_.births.end(), batch.begin(), batch.end());
  counts_.births += batch.size();
}

void ChunkedRecorder::on_death(Coord at) {
  make_room(2);
  chunk_.events.push_back(
      Event{Kind::kDeath, false, scm::kNoPhase, chunk_.deaths.size(), 1});
  chunk_.deaths.push_back(at);
  ++counts_.deaths;
}

void ChunkedRecorder::on_death_bulk(std::span<const Coord> batch) {
  make_room(1 + batch.size());
  chunk_.events.push_back(Event{Kind::kDeathBulk, false, scm::kNoPhase,
                                chunk_.deaths.size(), batch.size()});
  chunk_.deaths.insert(chunk_.deaths.end(), batch.begin(), batch.end());
  counts_.deaths += batch.size();
}

void ChunkedRecorder::on_phase_enter(PhaseId id) {
  make_room(1);
  chunk_.events.push_back(Event{Kind::kPhaseEnter, false, id, 0, 0});
  ++counts_.phase_enters;
}

void ChunkedRecorder::on_phase_exit(PhaseId id) {
  make_room(1);
  chunk_.events.push_back(Event{Kind::kPhaseExit, false, id, 0, 0});
}

void ChunkedRecorder::on_reset() {
  make_room(1);
  chunk_.events.push_back(Event{Kind::kReset, false, scm::kNoPhase, 0, 0});
}

}  // namespace perfbench
