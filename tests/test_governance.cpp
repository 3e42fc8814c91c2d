// Resource governance: solver step budgets, cooperative cancellation, and
// graceful degradation to atomic adjoints.
//
// The contract under test, end to end:
//   - budgets are deterministic (counted solver steps, never wall-clock),
//     so a budget-exhausted Unknown is a pure function of the conjunction;
//   - every governance outcome degrades toward safety: exhausted checks
//     and cancelled pairs keep atomic adjoints / undecided race pairs,
//     and the generated adjoint stays numerically correct;
//   - a budget-limited Unknown can never poison a larger-budget run
//     through the shared verdict store;
//   - a task exception or fired deadline cancels the rest of a pool run
//     cooperatively — no hang, no half-merged state;
//   - with everything at its default (unlimited) setting the reports are
//     byte-identical to the pre-governance analyzer at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "driver/driver.h"
#include "exec/interp.h"
#include "formad/formad.h"
#include "helpers.h"
#include "kernels/stencil.h"
#include "smt/budget.h"
#include "smt/diskcache.h"
#include "smt/solver.h"
#include "support/cancel.h"
#include "support/diagnostics.h"

namespace formad {
namespace {

using support::CancelToken;
using support::Cancelled;

// ------------------------------------------------------------ CancelToken

TEST(CancelToken, CancelSetsAndThrowHelperThrows) {
  CancelToken t;
  EXPECT_FALSE(t.cancelled());
  EXPECT_FALSE(t.poll());
  t.throwIfCancelled();  // no-op while clear
  t.cancel();
  EXPECT_TRUE(t.cancelled());
  EXPECT_TRUE(t.poll());
  EXPECT_THROW(t.throwIfCancelled(), Cancelled);
}

TEST(CancelToken, NonPositiveDeadlineCancelsImmediately) {
  CancelToken zero, negative;
  zero.armDeadline(0);
  negative.armDeadline(-5);
  EXPECT_TRUE(zero.cancelled());
  EXPECT_TRUE(negative.cancelled());
}

TEST(CancelToken, DeadlineTripsOnPollAfterExpiry) {
  CancelToken t;
  t.armDeadline(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // cancelled() alone never reads the clock; poll() does and latches.
  EXPECT_TRUE(t.poll());
  EXPECT_TRUE(t.cancelled());

  CancelToken far;
  far.armDeadline(60000);
  EXPECT_FALSE(far.poll());
}

// -------------------------------------------------------------- StepBudget

TEST(StepBudget, ChargesUpToLimitThenThrows) {
  smt::StepBudget b;
  b.arm(5, nullptr);
  for (int k = 0; k < 5; ++k) b.charge();
  EXPECT_EQ(b.used(), 5);
  EXPECT_THROW(b.charge(), smt::StepLimitReached);
}

TEST(StepBudget, UnlimitedNeverThrows) {
  smt::StepBudget b;
  b.arm(0, nullptr);
  for (int k = 0; k < 100000; ++k) b.charge();
  EXPECT_EQ(b.used(), 100000);
}

TEST(StepBudget, PollsCancelTokenPeriodically) {
  CancelToken cancel;
  cancel.cancel();
  smt::StepBudget b;
  b.arm(0, &cancel);
  // The token is polled every few hundred steps, not per charge; an
  // unlimited budget with a fired token must still unwind promptly.
  EXPECT_THROW(
      {
        for (int k = 0; k < 100000; ++k) b.charge();
      },
      Cancelled);
}

// ------------------------------------------------------------ VerdictEntry

TEST(VerdictCacheBudget, SufficiencyGuardSemantics) {
  using Entry = smt::VerdictEntry;
  // Complete verdict that consumed 10 steps: serveable to any budget that
  // could have afforded the solve.
  Entry complete{smt::CheckResult::Unsat, 2, /*complete=*/true, /*steps=*/10};
  EXPECT_TRUE(Entry::sufficientFor(complete, 0));    // unlimited
  EXPECT_TRUE(Entry::sufficientFor(complete, 10));
  EXPECT_TRUE(Entry::sufficientFor(complete, 1000));
  EXPECT_FALSE(Entry::sufficientFor(complete, 9));

  // Exhausted at limit 10: any limit <= 10 exhausts too (steps are
  // deterministic), but a larger or unlimited budget must re-derive.
  Entry exhausted{smt::CheckResult::Unknown, 2, /*complete=*/false,
                  /*steps=*/10};
  EXPECT_TRUE(Entry::sufficientFor(exhausted, 10));
  EXPECT_TRUE(Entry::sufficientFor(exhausted, 5));
  EXPECT_FALSE(Entry::sufficientFor(exhausted, 11));
  EXPECT_FALSE(Entry::sufficientFor(exhausted, 0));  // unlimited
}

/// A conjunction whose full solve needs several pivot steps and is truly
/// Unsat: a = b = c = d with 4a == 10 has no integer solution.
void addChain(smt::Solver& s, const std::vector<smt::AtomId>& v) {
  using smt::Constraint;
  using smt::LinExpr;
  using smt::Rational;
  s.add(Constraint::eq(LinExpr::atom(v[0]), LinExpr::atom(v[1])));
  s.add(Constraint::eq(LinExpr::atom(v[1]), LinExpr::atom(v[2])));
  s.add(Constraint::eq(LinExpr::atom(v[2]), LinExpr::atom(v[3])));
  s.add(Constraint::eq(LinExpr::atom(v[0]) + LinExpr::atom(v[1]) +
                           LinExpr::atom(v[2]) + LinExpr::atom(v[3]),
                       LinExpr(Rational(10))));
}

TEST(VerdictCacheBudget, ExhaustedEntryNeverPoisonsLargerBudget) {
  smt::AtomTable atoms;
  std::vector<smt::AtomId> v;
  for (int k = 0; k < 4; ++k)
    v.push_back(atoms.internVar("v" + std::to_string(k), 0, false));
  smt::PersistentVerdictStore store;

  // Starved solver: one step is not enough for the pivot chain.
  smt::Solver starved(atoms);
  starved.attachStore(&store);
  starved.setStepBudget(1);
  addChain(starved, v);
  EXPECT_EQ(starved.check(), smt::CheckResult::Unknown);
  EXPECT_TRUE(starved.lastCheckBudgetExhausted());
  EXPECT_EQ(starved.stats().budgetExhausted, 1);

  // Unlimited solver over the same store and conjunction: the exhausted
  // entry is budget-insufficient, so it re-derives the real verdict.
  smt::Solver full(atoms);
  full.attachStore(&store);
  addChain(full, v);
  EXPECT_EQ(full.check(), smt::CheckResult::Unsat);
  EXPECT_FALSE(full.lastCheckBudgetExhausted());

  // A second starved solver may reuse the exhaustion record, and a second
  // unlimited solver now hits the upgraded complete verdict — either way
  // the answers match what each budget would derive on its own.
  smt::Solver starved2(atoms);
  starved2.attachStore(&store);
  starved2.setStepBudget(1);
  addChain(starved2, v);
  EXPECT_EQ(starved2.check(), smt::CheckResult::Unknown);
  EXPECT_TRUE(starved2.lastCheckBudgetExhausted());

  smt::Solver full2(atoms);
  full2.attachStore(&store);
  addChain(full2, v);
  EXPECT_EQ(full2.check(), smt::CheckResult::Unsat);
}

TEST(SolverBudget, PrivateCacheHonorsTheSameGuard) {
  smt::AtomTable atoms;
  std::vector<smt::AtomId> v;
  for (int k = 0; k < 4; ++k)
    v.push_back(atoms.internVar("v" + std::to_string(k), 0, false));

  // One solver, no shared store: starve a check, then lift the budget.
  // The solver's own store must re-derive instead of replaying Unknown.
  smt::Solver s(atoms);
  s.setStepBudget(1);
  addChain(s, v);
  EXPECT_EQ(s.check(), smt::CheckResult::Unknown);
  EXPECT_TRUE(s.lastCheckBudgetExhausted());
  s.setStepBudget(0);
  EXPECT_EQ(s.check(), smt::CheckResult::Unsat);
  // And the upgraded complete entry now serves the unlimited re-check.
  EXPECT_EQ(s.check(), smt::CheckResult::Unsat);
}

// ---------------------------------------------- degradation, end to end

driver::DriverOptions starvedOptions(long long budget) {
  driver::DriverOptions opts;
  opts.analysisThreads = 1;
  // The tiered fast paths answer stencil queries without solver steps, so
  // starve the full solver specifically.
  opts.fastpath = smt::FastPathMode::Off;
  opts.solverStepBudget = budget;
  return opts;
}

TEST(Degradation, ExhaustedBudgetMarksVariablesAtomicWithReason) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  auto a = driver::analyze(*kernel, spec.independents, spec.dependents,
                           starvedOptions(1));
  EXPECT_GT(a.budgetExhaustedChecks(), 0);
  EXPECT_GT(a.degradedPairs(), 0);
  bool sawReason = false;
  for (const auto& r : a.regions) {
    // An exhausted consistency probe is Unknown, not Unsat: no
    // contradiction claim may appear under starvation.
    EXPECT_TRUE(r.knowledgeContradiction.empty());
    for (const auto& v : r.vars)
      if (!v.safe && v.unsafeReason == "step budget exhausted")
        sawReason = true;
  }
  EXPECT_TRUE(sawReason);

  // The unlimited analysis proves the same kernel fully safe — the budget
  // is the only thing in the way.
  auto full = driver::analyze(*kernel, spec.independents, spec.dependents,
                              starvedOptions(0));
  EXPECT_EQ(full.budgetExhaustedChecks(), 0);
  EXPECT_EQ(full.degradedPairs(), 0);
  for (const auto& r : full.regions)
    for (const auto& v : r.vars) EXPECT_TRUE(v.safe) << v.var;
}

TEST(Degradation, BudgetedVerdictsAreThreadCountInvariant) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  std::string reference;
  for (int threads : {1, 2, 4}) {
    auto opts = starvedOptions(1);
    opts.analysisThreads = threads;
    auto a = driver::analyze(*kernel, spec.independents, spec.dependents,
                             opts);
    std::string report =
        core::describe(a, /*includeTiming=*/false) + core::describeTiers(a);
    if (reference.empty()) reference = report;
    EXPECT_EQ(report, reference) << "threads " << threads;
  }
}

/// Gradients of the harness kernel computed by the adjoint `dopts` builds,
/// executed with `engine`; the adjoint seed is deterministic so runs are
/// comparable across modes and engines.
std::map<std::string, std::vector<double>> gradientsWith(
    const testing::Harness& h, const driver::DriverOptions& dopts,
    exec::ExecEngine engine) {
  auto primal = h.parse();
  auto dr = driver::differentiate(*primal, h.spec.independents,
                                  h.spec.dependents, dopts);
  exec::Inputs aio;
  h.bind(aio);
  for (const auto& [p, pb] : dr.adjointParams) {
    const exec::ArrayValue& src = aio.array(p);
    std::vector<long long> dims;
    for (int k = 0; k < src.rank(); ++k) dims.push_back(src.dim(k));
    exec::ArrayValue& a = aio.bindArray(pb, exec::ArrayValue::reals(dims));
    if (std::find(h.spec.dependents.begin(), h.spec.dependents.end(), p) !=
        h.spec.dependents.end()) {
      auto& yb = a.realData();
      for (size_t k = 0; k < yb.size(); ++k)
        yb[k] = 0.25 + 0.001 * static_cast<double>(k % 97);
    }
  }
  exec::Executor aex(*dr.adjoint);
  exec::ExecOptions eopts;
  eopts.engine = engine;
  exec::ExecStats st = aex.run(aio, eopts);
  EXPECT_TRUE(st.tapeDrained);
  std::map<std::string, std::vector<double>> out;
  for (const auto& [p, pb] : dr.adjointParams)
    out[p] = aio.array(pb).realData();
  return out;
}

TEST(Degradation, StarvedAdjointStaysNumericallyCorrectOnBothEngines) {
  testing::Harness h = testing::stencilHarness(2, 64, 7);

  // Reference: the all-atomic adjoint, correct by construction.
  driver::DriverOptions atomicOpts;
  atomicOpts.mode = driver::AdjointMode::Atomic;
  auto reference =
      gradientsWith(h, atomicOpts, exec::ExecEngine::TreeWalk);

  // Candidate: FormAD under a starved budget — every degraded pair falls
  // back to an atomic guard, so the derivatives must match exactly.
  auto starved = starvedOptions(1);
  starved.mode = driver::AdjointMode::FormAD;
  for (auto engine : {exec::ExecEngine::TreeWalk, exec::ExecEngine::Bytecode}) {
    auto got = gradientsWith(h, starved, engine);
    ASSERT_EQ(got.size(), reference.size());
    for (const auto& [name, want] : reference) {
      ASSERT_TRUE(got.count(name)) << name;
      const auto& have = got.at(name);
      ASSERT_EQ(have.size(), want.size()) << name;
      for (size_t k = 0; k < want.size(); ++k)
        EXPECT_LT(testing::relDiff(have[k], want[k]), 1e-12)
            << name << "[" << k << "]";
    }
  }
}

TEST(Degradation, StarvedDifferentiateWarnsButBuildsTheAdjoint) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  auto dopts = starvedOptions(1);
  dopts.mode = driver::AdjointMode::FormAD;
  auto dr = driver::differentiate(*kernel, spec.independents, spec.dependents,
                                  dopts);
  ASSERT_NE(dr.adjoint, nullptr);
  bool warned = false;
  for (const auto& w : dr.warnings)
    if (w.find("degraded under resource limits") != std::string::npos)
      warned = true;
  EXPECT_TRUE(warned) << "graceful degradation must never be silent";
}

TEST(Degradation, TinyDeadlineReturnsPromptlyAndSoundly) {
  auto spec = kernels::stencilSpec(8);
  auto kernel = parser::parseKernel(spec.source);
  driver::DriverOptions opts;
  opts.analysisThreads = 4;
  opts.analysisDeadlineMs = 1;
  // Liveness contract only: the analysis returns (instead of hanging) and
  // whatever it could not finish is conservatively unsafe with a reason.
  auto a = driver::analyze(*kernel, spec.independents, spec.dependents, opts);
  for (const auto& r : a.regions)
    for (const auto& v : r.vars)
      if (!v.safe) EXPECT_FALSE(v.unsafeReason.empty());
}

// ---------------------------------------------------------- fault injection

TEST(FaultInjection, ForcedUnknownDegradesLikeBudgetExhaustion) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  smt::FaultInject fault;
  fault.unknownAtCheck = 1;
  driver::DriverOptions opts;
  opts.analysisThreads = 1;
  opts.faultInject = &fault;
  auto a = driver::analyze(*kernel, spec.independents, spec.dependents, opts);
  EXPECT_GT(a.budgetExhaustedChecks(), 0)
      << "the injected Unknown must surface in the governance counters";
  EXPECT_GT(fault.checksSeen.load(), 0);
}

TEST(FaultInjection, ForcedThrowPropagatesWithoutHangingThePool) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  smt::FaultInject fault;
  fault.throwAtCheck = 3;
  driver::DriverOptions opts;
  opts.mode = driver::AdjointMode::FormAD;
  opts.analysisThreads = 4;  // the interesting case: workers must unwind
  opts.faultInject = &fault;
  try {
    auto dr = driver::differentiate(*kernel, spec.independents,
                                    spec.dependents, opts);
    FAIL() << "the injected fault must propagate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("injected solver fault"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- default identity

TEST(DefaultGovernance, UnlimitedBudgetReportsAreByteIdenticalToDefaults) {
  auto spec = kernels::stencilSpec(2);
  auto kernel = parser::parseKernel(spec.source);
  for (int threads : {1, 2, 4, 8}) {
    auto base = driver::analyze(*kernel, spec.independents, spec.dependents,
                                threads);
    driver::DriverOptions opts;
    opts.analysisThreads = threads;
    opts.solverStepBudget = 0;
    opts.analysisDeadlineMs = 0;
    auto gov =
        driver::analyze(*kernel, spec.independents, spec.dependents, opts);
    EXPECT_EQ(core::describe(base, false) + core::describeTiers(base),
              core::describe(gov, false) + core::describeTiers(gov))
        << "threads " << threads;
    EXPECT_EQ(gov.budgetExhaustedChecks(), 0);
    EXPECT_EQ(gov.degradedPairs(), 0);
  }
}

}  // namespace
}  // namespace formad
