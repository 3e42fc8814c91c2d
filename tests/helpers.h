// Shared test utilities: kernel harnesses and derivative validation.
#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ad/forward.h"
#include "driver/driver.h"
#include "exec/interp.h"
#include "ir/kernel.h"
#include "kernels/spec.h"
#include "parser/parser.h"
#include "smt/solver.h"

namespace formad::testing {

/// A kernel under test: spec + a binder that fills Inputs deterministically
/// from a seed (fresh state on every call).
struct Harness {
  kernels::KernelSpec spec;
  std::function<void(exec::Inputs&)> bind;

  [[nodiscard]] std::unique_ptr<ir::Kernel> parse() const {
    return parser::parseKernel(spec.source);
  }
};

/// Runs the primal and returns the value of every dependent (flattened).
std::map<std::string, std::vector<double>> runPrimal(const Harness& h);

/// Relative difference |a-b| / max(1, |a|, |b|).
double relDiff(double a, double b);

/// Validates the dot-product identity  <yb, yd> == <xb_out, xd_seed>
/// between the tangent and the adjoint built in `mode`, executed with
/// `execOpts`. Returns the relative error.
double dotProductError(const Harness& h, driver::AdjointMode mode,
                       const exec::ExecOptions& execOpts, unsigned seed);

/// Central finite-difference check of the adjoint-computed gradient of
/// sum(dependents) w.r.t. `probes` random entries of the independents.
/// Returns the maximum relative error over the probes.
double finiteDifferenceError(const Harness& h, driver::AdjointMode mode,
                             int probes, unsigned seed);

/// Gradients (all adjoint outputs) computed by the adjoint in `mode` with
/// the given execution options; yb seeded deterministically from `seed`.
std::map<std::string, std::vector<double>> adjointGradients(
    const Harness& h, driver::AdjointMode mode,
    const exec::ExecOptions& execOpts, unsigned seed);

/// Full-options variant: differentiates under `dopts` verbatim (mode,
/// budget, fastpath, ...), for suites that exercise analysis governance —
/// e.g. a budget-starved hybrid adjoint. Same seeding contract.
std::map<std::string, std::vector<double>> adjointGradients(
    const Harness& h, const driver::DriverOptions& dopts,
    const exec::ExecOptions& execOpts, unsigned seed);

// --- prebuilt harnesses for the paper's kernels ---
Harness stencilHarness(int radius, long long n, unsigned seed);
Harness gfmcHarness(bool fused, unsigned seed);
Harness greenGaussHarness(long long nodes, unsigned seed);
Harness indirectHarness(long long n, unsigned seed);
Harness lbmHarness(unsigned seed);

/// DSL source of a random kernel drawn from the generator grammar (parallel
/// loop with nested serial loops and branches, increments and overwrites,
/// 1-D/2-D arrays, nonlinear intrinsics, scalar locals). Deterministic in
/// `seed`; race-free by construction (iterations only touch row/column i
/// plus read-only data). Shared by the property suite and the differential
/// fuzzer.
std::string randomKernelSource(unsigned seed);

/// Harness over randomKernelSource(seed) with deterministic bindings
/// (u, v, w real arrays; r read-only reals; c a permutation of 0..n-1).
Harness randomHarness(unsigned seed);

/// Localized, seed-deterministic source edit for the incremental-cache
/// fuzzer: rewrites exactly ONE bracketed bare `[i]` index (site chosen by
/// seed) into `[i +/- d]` with a small seed-chosen offset. The edit touches
/// a single statement, so an incremental re-analysis should re-prove only
/// the contexts whose knowledge mentions the edited reference. Returns the
/// source unchanged when it contains no `[i]` site.
std::string mutateIndexSite(const std::string& source, unsigned seed);

/// Random solver conjunction drawn from the FormAD query grammar: affine
/// (dis)equalities and bounds over a counter pair, iteration-lattice
/// coordinates, a parameter, and uninterpreted array reads — the
/// constraint shapes the exploitation and race-check stacks produce.
/// Deterministic in `seed`. Used by the fast-path differential fuzzer
/// (test_fastpath.cpp).
std::vector<smt::Constraint> randomConjunction(smt::AtomTable& atoms,
                                               unsigned seed);

/// A ContentKey over literal canonical constraint keys, interned in
/// `interner` (conjunction in any order, probes in order). Lets store and
/// registry tests name content without building solver stacks.
smt::ContentKey contentKeyOf(smt::ConstraintInterner& interner,
                             smt::KeyKind kind,
                             const std::vector<std::string>& conjunction,
                             const std::vector<std::string>& probes = {});

/// `key` with its digest replaced by `digest` and its identity kept: two
/// such keys simulate a 128-bit digest collision between different
/// content.
smt::ContentKey withDigest(smt::ContentKey key,
                           const smt::ContentDigest& digest);

}  // namespace formad::testing
