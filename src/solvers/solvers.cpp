#include "solvers/solvers.hpp"

#include "solvers/blas1.hpp"
#include "spmv/spmv.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace scm::solvers {

SolveResult conjugate_gradient(Machine& m, const CooMatrix& a,
                               const std::vector<double>& b,
                               const SolveOptions& opts) {
  if (a.n_rows() != a.n_cols()) {
    throw std::invalid_argument("conjugate_gradient: matrix must be square");
  }
  static const PhaseId kPhase = PhaseRegistry::instance().intern("solver_cg");
  Machine::PhaseScope scope(m, kPhase);
  const auto n = static_cast<size_t>(a.n_rows());
  SolveResult out;
  out.x.assign(n, 0.0);
  std::vector<double> r = b;
  std::vector<double> p = r;
  double rr = norm2(m, r);
  const double threshold =
      opts.tolerance * opts.tolerance * std::max(norm2(m, b), 1e-300);

  while (out.iterations < opts.max_iterations && rr > threshold) {
    const std::vector<double> ap = spmv(m, a, p).y;
    const double p_ap = dot(m, p, ap);
    if (p_ap == 0.0) break;  // breakdown (A not SPD)
    const double alpha = rr / p_ap;
    axpy(m, alpha, p, out.x);
    axpy(m, -alpha, ap, r);
    const double rr_next = norm2(m, r);
    const double beta = rr_next / rr;
    scale(m, beta, p);
    axpy(m, 1.0, r, p);  // p = r + beta p
    rr = rr_next;
    ++out.iterations;
  }
  out.residual = std::sqrt(rr);
  out.converged = rr <= threshold;
  return out;
}

SolveResult jacobi(Machine& m, const CooMatrix& a,
                   const std::vector<double>& b, const SolveOptions& opts) {
  if (a.n_rows() != a.n_cols()) {
    throw std::invalid_argument("jacobi: matrix must be square");
  }
  static const PhaseId kPhase =
      PhaseRegistry::instance().intern("solver_jacobi");
  Machine::PhaseScope scope(m, kPhase);
  const auto n = static_cast<size_t>(a.n_rows());

  // Split A = D + R; D must have no zero entries.
  std::vector<double> diag(n, 0.0);
  CooMatrix rest(a.n_rows(), a.n_cols());
  for (const Triple& t : a.entries()) {
    if (t.row == t.col) {
      diag[static_cast<size_t>(t.row)] += t.value;
    } else {
      rest.add(t.row, t.col, t.value);
    }
  }
  for (double d : diag) {
    if (d == 0.0) {
      throw std::invalid_argument("jacobi: zero diagonal entry");
    }
  }

  SolveResult out;
  out.x.assign(n, 0.0);
  const double b_norm = std::sqrt(std::max(norm2(m, b), 1e-300));
  while (out.iterations < opts.max_iterations) {
    // x' = D^{-1} (b - R x), all vector steps local.
    const std::vector<double> rx =
        rest.nnz() > 0 ? spmv(m, rest, out.x).y
                       : std::vector<double>(n, 0.0);
    std::vector<double> next(n);
    for (size_t i = 0; i < n; ++i) {
      next[i] = (b[i] - rx[i]) / diag[i];
    }
    m.op(static_cast<index_t>(n));
    out.x = std::move(next);
    ++out.iterations;

    // Residual check: ||b - A x||.
    const std::vector<double> ax = spmv(m, a, out.x).y;
    std::vector<double> r(n);
    for (size_t i = 0; i < n; ++i) r[i] = b[i] - ax[i];
    m.op(static_cast<index_t>(n));
    out.residual = std::sqrt(norm2(m, r));
    if (out.residual <= opts.tolerance * b_norm) {
      out.converged = true;
      break;
    }
  }
  return out;
}

SolveResult power_iteration(Machine& m, const CooMatrix& a,
                            std::vector<double> x0,
                            const SolveOptions& opts) {
  if (a.n_rows() != a.n_cols()) {
    throw std::invalid_argument("power_iteration: matrix must be square");
  }
  if (static_cast<index_t>(x0.size()) != a.n_rows()) {
    throw std::invalid_argument("power_iteration: bad initial vector size");
  }
  static const PhaseId kPhase =
      PhaseRegistry::instance().intern("solver_power");
  Machine::PhaseScope scope(m, kPhase);
  SolveResult out;
  out.x = std::move(x0);
  double lambda = 0.0;
  while (out.iterations < opts.max_iterations) {
    const double nrm = std::sqrt(std::max(norm2(m, out.x), 1e-300));
    scale(m, 1.0 / nrm, out.x);
    const std::vector<double> ax = spmv(m, a, out.x).y;
    const double next_lambda = dot(m, out.x, ax);  // Rayleigh quotient
    const bool settled =
        out.iterations > 0 &&
        std::abs(next_lambda - lambda) <=
            opts.tolerance * std::max(1.0, std::abs(next_lambda));
    lambda = next_lambda;
    out.x = ax;
    ++out.iterations;
    if (settled) {
      out.converged = true;
      break;
    }
  }
  const double nrm = std::sqrt(std::max(norm2(m, out.x), 1e-300));
  scale(m, 1.0 / nrm, out.x);
  out.residual = lambda;
  return out;
}

}  // namespace scm::solvers
