#include "smt/hnf.h"

#include <algorithm>
#include <set>

#include "support/diagnostics.h"

namespace formad::smt {

namespace {

using Wide = __int128;

long long narrow(Wide v) {
  if (v > INT64_MAX || v < INT64_MIN)
    throw ArithmeticOverflow(
        "arithmetic overflow: an HNF coefficient exceeds 64 bits");
  return static_cast<long long>(v);
}

}  // namespace

std::vector<AtomId> denseRows(const std::vector<const LinExpr*>& equalities,
                              std::vector<IntRow>& out) {
  std::set<AtomId> atomSet;
  for (const auto* e : equalities)
    for (const auto& [id, c] : e->coeffs()) {
      (void)c;
      atomSet.insert(id);
    }
  std::vector<AtomId> columns(atomSet.begin(), atomSet.end());

  out.clear();
  for (const auto* e : equalities) {
    // Clear denominators:  Σ c_k x_k + const = 0  ->  Σ (l c_k) x_k = -l const.
    long long l = e->constant().den();
    for (const auto& [id, c] : e->coeffs()) {
      (void)id;
      l = lcm64(l, c.den());
    }
    IntRow row;
    row.coeffs.assign(columns.size(), 0);
    for (const auto& [id, c] : e->coeffs()) {
      size_t col = static_cast<size_t>(
          std::lower_bound(columns.begin(), columns.end(), id) -
          columns.begin());
      row.coeffs[col] = narrow(static_cast<Wide>(c.num()) * (l / c.den()));
    }
    row.rhs = narrow(-static_cast<Wide>(e->constant().num()) *
                     (l / e->constant().den()));
    out.push_back(std::move(row));
  }
  return columns;
}

bool integerSolvable(std::vector<IntRow> rows, StepBudget* budget) {
  const size_t n = rows.empty() ? 0 : rows[0].coeffs.size();
  return integerSolve(std::move(rows), n, budget).has_value();
}

std::optional<IntSolution> integerSolve(std::vector<IntRow> rows,
                                        size_t width, StepBudget* budget) {
  const size_t m = rows.size();
  const size_t n = width;
  FORMAD_ASSERT(rows.empty() || rows[0].coeffs.size() == n,
                "integerSolve width mismatch");

  // The unimodular column transformation U (column-major: U[c] is column c
  // of U, length n). Every column operation applied to A is mirrored on U,
  // maintaining the invariant  H = A_original · U.
  std::vector<std::vector<long long>> U(n);
  for (size_t c = 0; c < n; ++c) {
    U[c].assign(n, 0);
    U[c][c] = 1;
  }

  // Bring the coefficient matrix to lower-triangular Hermite-like form
  // using unimodular *column* operations (they change variables, not the
  // solution's existence). We process one pivot row at a time.
  size_t pivotCol = 0;
  std::vector<size_t> pivotColOfRow(m, SIZE_MAX);
  for (size_t r = 0; r < m && pivotCol < n; ++r) {
    // Euclidean elimination across columns pivotCol..n-1 on row r.
    while (true) {
      if (budget != nullptr) budget->charge();
      // Find the column (>= pivotCol) with the smallest nonzero |entry|.
      size_t best = SIZE_MAX;
      for (size_t cidx = pivotCol; cidx < n; ++cidx) {
        long long v = rows[r].coeffs[cidx];
        if (v == 0) continue;
        if (best == SIZE_MAX ||
            std::llabs(v) < std::llabs(rows[r].coeffs[best]))
          best = cidx;
      }
      if (best == SIZE_MAX) break;  // row r has no support here
      // Move it to pivotCol (column swap is unimodular).
      if (best != pivotCol) {
        for (size_t rr = 0; rr < m; ++rr)
          std::swap(rows[rr].coeffs[pivotCol], rows[rr].coeffs[best]);
        std::swap(U[pivotCol], U[best]);
      }
      // Reduce every other column of row r modulo the pivot.
      long long p = rows[r].coeffs[pivotCol];
      bool clean = true;
      for (size_t cidx = pivotCol + 1; cidx < n; ++cidx) {
        long long v = rows[r].coeffs[cidx];
        if (v == 0) continue;
        long long q = v / p;  // truncated division keeps |remainder| < |p|
        if (q != 0) {
          if (budget != nullptr) budget->charge();
          for (size_t rr = 0; rr < m; ++rr)
            rows[rr].coeffs[cidx] = narrow(
                static_cast<Wide>(rows[rr].coeffs[cidx]) -
                static_cast<Wide>(q) * rows[rr].coeffs[pivotCol]);
          for (size_t i = 0; i < n; ++i)
            U[cidx][i] = narrow(static_cast<Wide>(U[cidx][i]) -
                                static_cast<Wide>(q) * U[pivotCol][i]);
        }
        if (rows[r].coeffs[cidx] != 0) clean = false;
      }
      if (clean) break;  // row r now has a single entry at pivotCol
    }
    if (pivotCol < n && rows[r].coeffs[pivotCol] != 0) {
      pivotColOfRow[r] = pivotCol;
      ++pivotCol;
    }
  }

  // Forward substitution on H y = b. Process rows in order; each pivot
  // entry must divide the residual right-hand side. Free coordinates of y
  // stay 0 — they parameterize the homogeneous lattice instead.
  std::vector<long long> y(n, 0);
  for (size_t r = 0; r < m; ++r) {
    Wide residual = rows[r].rhs;
    // Subtract contributions of already-fixed y values (columns < pivot).
    size_t pc = pivotColOfRow[r];
    size_t upto = pc == SIZE_MAX ? n : pc;
    for (size_t cidx = 0; cidx < upto; ++cidx)
      residual -= static_cast<Wide>(rows[r].coeffs[cidx]) * y[cidx];
    if (pc == SIZE_MAX) {
      // Zero row: the residual must vanish (rational inconsistency
      // otherwise).
      if (residual != 0) return std::nullopt;
      continue;
    }
    long long p = rows[r].coeffs[pc];
    if (residual % p != 0) return std::nullopt;  // integer infeasible
    y[pc] = narrow(residual / p);
  }

  // Map back through U:  x = U·y.  Columns of U beyond the last pivot span
  // the kernel of A (H has no support there), giving the lattice basis.
  IntSolution sol;
  sol.particular.assign(n, 0);
  for (size_t c = 0; c < pivotCol; ++c) {
    if (y[c] == 0) continue;
    for (size_t i = 0; i < n; ++i)
      sol.particular[i] = narrow(static_cast<Wide>(sol.particular[i]) +
                                 static_cast<Wide>(y[c]) * U[c][i]);
  }
  for (size_t c = pivotCol; c < n; ++c) sol.basis.push_back(U[c]);
  return sol;
}

}  // namespace formad::smt
