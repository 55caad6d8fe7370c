#include "spmv/pram_spmv.hpp"

#include "pram/crcw.hpp"

#include <cassert>
#include <stdexcept>

namespace scm {

// Step schedule (L = chunk_, R = rounds_):
//   phase 0: 2L steps  — per slot i: read value[e], then read x[col_e] and
//                        write the product to cell e;
//   phase 1: L steps   — chunk-local segmented prefix: read cell e, write
//                        the running prefix (reset at heads);
//   phase 2: 1 step    — write the chunk partial;
//   phase 3: R steps   — segmented Hillis-Steele over the partials;
//   phase 4: 1 step    — read the left neighbour's partial (the incoming
//                        prefix);
//   phase 5: L steps   — fix-up: add the incoming prefix to entries before
//                        the chunk's first head;
//   phase 6: L steps   — row ends write their row's total to y.
namespace {
constexpr int kProducts = 0;
constexpr int kLocalScan = 1;
constexpr int kWritePartial = 2;
constexpr int kCombine = 3;
constexpr int kReadIncoming = 4;
constexpr int kFixup = 5;
constexpr int kEmit = 6;

// Register roles.
constexpr int kRegValue = 0;    // loaded matrix value
constexpr int kRegRunning = 1;  // running chunk prefix / chunk partial
constexpr int kRegIncoming = 2; // incoming cross-chunk prefix
}  // namespace

BrentSpmvProgram::BrentSpmvProgram(const CooMatrix& a)
    : m_(a.nnz()), n_rows_(a.n_rows()), n_cols_(a.n_cols()) {
  if (m_ <= 0) throw std::invalid_argument("BrentSpmvProgram: empty matrix");
  const std::vector<Triple>& e = a.entries();
  for (index_t i = 1; i < m_; ++i) {
    if (e[static_cast<size_t>(i - 1)].row > e[static_cast<size_t>(i)].row) {
      throw std::invalid_argument("BrentSpmvProgram: entries not row-sorted");
    }
  }

  index_t log_m = 1;
  while ((index_t{1} << log_m) < m_) ++log_m;
  chunk_ = log_m;
  p_ = (m_ + chunk_ - 1) / chunk_;
  rounds_ = 0;
  while ((index_t{1} << rounds_) < p_) ++rounds_;
  steps_ = 2 * chunk_ + chunk_ + 1 + rounds_ + 1 + chunk_ + chunk_;
  x_base_ = m_;
  partial_base_ = m_ + n_cols_;
  y_base_ = partial_base_ + p_;
  cells_ = y_base_ + n_rows_;

  col_.resize(static_cast<size_t>(m_));
  value_.resize(static_cast<size_t>(m_));
  row_.resize(static_cast<size_t>(m_));
  head_.resize(static_cast<size_t>(m_));
  row_end_.resize(static_cast<size_t>(m_));
  for (index_t i = 0; i < m_; ++i) {
    const auto s = static_cast<size_t>(i);
    col_[s] = e[s].col;
    value_[s] = e[s].value;
    row_[s] = e[s].row;
    head_[s] = (i == 0 || e[s - 1].row != e[s].row) ? 1 : 0;
    row_end_[s] =
        (i + 1 == m_ || e[s + 1].row != e[s].row) ? 1 : 0;
  }

  first_head_.assign(static_cast<size_t>(p_), chunk_);
  for (index_t c = 0; c < p_; ++c) {
    for (index_t i = 0; i < chunk_; ++i) {
      const index_t entry = c * chunk_ + i;
      if (entry >= m_) break;
      if (head_[static_cast<size_t>(entry)]) {
        first_head_[static_cast<size_t>(c)] = i;
        break;
      }
    }
  }

  // Static flag propagation for the segmented Hillis-Steele over partials:
  // absorb_[t][c] says whether chunk c adds partial[c - 2^t] in round t.
  std::vector<char> flag(static_cast<size_t>(p_));
  for (index_t c = 0; c < p_; ++c) {
    flag[static_cast<size_t>(c)] =
        first_head_[static_cast<size_t>(c)] < chunk_ ? 1 : 0;
  }
  absorb_.assign(static_cast<size_t>(rounds_),
                 std::vector<char>(static_cast<size_t>(p_), 0));
  for (index_t t = 0; t < rounds_; ++t) {
    const index_t stride = index_t{1} << t;
    std::vector<char> next = flag;
    for (index_t c = stride; c < p_; ++c) {
      if (!flag[static_cast<size_t>(c)]) {
        absorb_[static_cast<size_t>(t)][static_cast<size_t>(c)] = 1;
      }
      next[static_cast<size_t>(c)] =
          flag[static_cast<size_t>(c)] | flag[static_cast<size_t>(c - stride)];
    }
    flag = next;
  }
}

BrentSpmvProgram::Slot BrentSpmvProgram::slot_of(index_t t) const {
  if (t < 2 * chunk_) return {kProducts, t};
  t -= 2 * chunk_;
  if (t < chunk_) return {kLocalScan, t};
  t -= chunk_;
  if (t < 1) return {kWritePartial, 0};
  t -= 1;
  if (t < rounds_) return {kCombine, t};
  t -= rounds_;
  if (t < 1) return {kReadIncoming, 0};
  t -= 1;
  if (t < chunk_) return {kFixup, t};
  t -= chunk_;
  return {kEmit, t};
}

std::optional<index_t> BrentSpmvProgram::read_request(
    index_t t, index_t p, const pram::ProcessorState&) const {
  const Slot s = slot_of(t);
  const index_t entry = p * chunk_ + (s.phase == kProducts ? s.offset / 2
                                                           : s.offset);
  switch (s.phase) {
    case kProducts:
      if (entry >= m_) return std::nullopt;
      return (s.offset % 2 == 0)
                 ? entry
                 : x_base_ + col_[static_cast<size_t>(entry)];
    case kLocalScan:
    case kFixup:
      if (entry >= m_) return std::nullopt;
      if (s.phase == kFixup &&
          s.offset >= first_head_[static_cast<size_t>(p)]) {
        return std::nullopt;
      }
      if (s.phase == kFixup && p == 0) return std::nullopt;
      return entry;
    case kWritePartial:
      return std::nullopt;
    case kCombine: {
      const index_t stride = index_t{1} << s.offset;
      if (p < stride ||
          !absorb_[static_cast<size_t>(s.offset)][static_cast<size_t>(p)]) {
        return std::nullopt;
      }
      return partial_base_ + (p - stride);
    }
    case kReadIncoming:
      if (p == 0 || first_head_[static_cast<size_t>(p)] == 0) {
        return std::nullopt;
      }
      return partial_base_ + (p - 1);
    case kEmit:
      if (entry >= m_ || !row_end_[static_cast<size_t>(entry)]) {
        return std::nullopt;
      }
      return entry;
    default:
      return std::nullopt;
  }
}

std::optional<pram::WriteOp> BrentSpmvProgram::execute(
    index_t t, index_t p, pram::ProcessorState& state,
    std::optional<pram::Word> read) const {
  const Slot s = slot_of(t);
  const index_t entry = p * chunk_ + (s.phase == kProducts ? s.offset / 2
                                                           : s.offset);
  switch (s.phase) {
    case kProducts:
      if (entry >= m_) return std::nullopt;
      if (s.offset % 2 == 0) {
        state.reg[kRegValue] = *read;
        return std::nullopt;
      }
      return pram::WriteOp{entry, state.reg[kRegValue] * *read};
    case kLocalScan: {
      if (entry >= m_) return std::nullopt;
      if (head_[static_cast<size_t>(entry)]) {
        state.reg[kRegRunning] = *read;
      } else {
        state.reg[kRegRunning] = (s.offset == 0 ? *read
                                                : state.reg[kRegRunning] +
                                                      *read);
      }
      return pram::WriteOp{entry, state.reg[kRegRunning]};
    }
    case kWritePartial:
      if (p * chunk_ >= m_) return std::nullopt;
      return pram::WriteOp{partial_base_ + p, state.reg[kRegRunning]};
    case kCombine: {
      if (!read) return std::nullopt;
      state.reg[kRegRunning] += *read;
      return pram::WriteOp{partial_base_ + p, state.reg[kRegRunning]};
    }
    case kReadIncoming:
      state.reg[kRegIncoming] = read ? *read : 0.0;
      return std::nullopt;
    case kFixup:
      if (!read) return std::nullopt;
      return pram::WriteOp{entry, *read + state.reg[kRegIncoming]};
    case kEmit:
      if (!read) return std::nullopt;
      return pram::WriteOp{y_base_ + row_[static_cast<size_t>(entry)], *read};
    default:
      return std::nullopt;
  }
}

std::vector<pram::Word> BrentSpmvProgram::initial_memory(
    const std::vector<double>& x) const {
  if (static_cast<index_t>(x.size()) != n_cols_) {
    throw std::invalid_argument("BrentSpmvProgram: x size mismatch");
  }
  std::vector<pram::Word> mem(static_cast<size_t>(cells_), 0.0);
  for (index_t i = 0; i < m_; ++i) {
    mem[static_cast<size_t>(i)] = value_[static_cast<size_t>(i)];
  }
  for (index_t i = 0; i < n_cols_; ++i) {
    mem[static_cast<size_t>(x_base_ + i)] = x[static_cast<size_t>(i)];
  }
  return mem;
}

std::vector<double> BrentSpmvProgram::extract_result(
    const std::vector<pram::Word>& memory) const {
  assert(static_cast<index_t>(memory.size()) == cells_);
  std::vector<double> y(static_cast<size_t>(n_rows_));
  for (index_t i = 0; i < n_rows_; ++i) {
    y[static_cast<size_t>(i)] = memory[static_cast<size_t>(y_base_ + i)];
  }
  return y;
}

std::vector<double> spmv_pram(Machine& machine, const CooMatrix& a,
                              const std::vector<double>& x) {
  static const PhaseId kPhase = PhaseRegistry::instance().intern("spmv_pram");
  Machine::PhaseScope scope(machine, kPhase);
  if (a.nnz() == 0) {
    return std::vector<double>(static_cast<size_t>(a.n_rows()), 0.0);
  }
  const CooMatrix sorted = a.sorted_by_row();
  const BrentSpmvProgram prog(sorted);
  const std::vector<pram::Word> final_mem =
      pram::simulate_crcw(machine, prog, prog.initial_memory(x));
  return prog.extract_result(final_mem);
}

}  // namespace scm
