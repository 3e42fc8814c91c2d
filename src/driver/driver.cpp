#include "driver/driver.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "smt/diskcache.h"
#include "support/pool.h"

namespace formad::driver {

using namespace ::formad::ir;

namespace {

/// Env-gated fault injection for the CI smoke job: FORMAD_FAULT_UNKNOWN_AT
/// and FORMAD_FAULT_THROW_AT name the 1-based ordinal of the solver check
/// (counted process-wide across driver calls) to force to a
/// budget-exhausted Unknown / a thrown formad::Error. Returns nullptr when
/// neither is set.
smt::FaultInject* envFaultInjection() {
  static smt::FaultInject fault;
  static const bool configured = [] {
    if (const char* u = std::getenv("FORMAD_FAULT_UNKNOWN_AT"))
      fault.unknownAtCheck = std::atoll(u);
    if (const char* t = std::getenv("FORMAD_FAULT_THROW_AT"))
      fault.throwAtCheck = std::atoll(t);
    return fault.unknownAtCheck > 0 || fault.throwAtCheck > 0;
  }();
  return configured ? &fault : nullptr;
}

/// Resolves the persistent verdict store of a driver call: a caller-owned
/// store wins, else cacheDir opens one owned by `owned` for the call's
/// duration. Fault injection disables the store outright — injected
/// verdicts are not pure functions of their query, so neither serving nor
/// persisting them would be sound.
smt::PersistentVerdictStore* resolveStore(
    const DriverOptions& dopts, smt::FaultInject* fault,
    std::unique_ptr<smt::PersistentVerdictStore>& owned) {
  if (fault != nullptr) return nullptr;
  if (dopts.verdictStore != nullptr) return dopts.verdictStore;
  if (dopts.cacheDir.empty()) return nullptr;
  owned = std::make_unique<smt::PersistentVerdictStore>(dopts.cacheDir);
  return owned.get();
}

/// Resolves the analysis pool of a driver call: a caller-owned client
/// wins, else a private pool of `threads` owned by `owned` for the call's
/// duration (none at width 1: the analysis then runs serially).
support::SharedAnalysisPool::Client* resolvePool(
    support::SharedAnalysisPool::Client* given, int threads,
    std::unique_ptr<support::SharedAnalysisPool::Client>& owned) {
  if (given != nullptr) return given;
  owned = support::SharedAnalysisPool::makePrivateClient(threads);
  return owned.get();
}

}  // namespace

int resolveThreadRequest(int requested, int autoValue) {
  if (requested < 0)
    fail("analysis threads must be >= 0 (0 = auto-detect), got " +
         std::to_string(requested));
  if (requested == 0) return autoValue;
  return requested;
}

int resolveAnalysisThreads(int requested) {
  return resolveThreadRequest(requested, support::hardwareWidth());
}

ServePoolPlan resolveServePool(int sessions, int analysisThreads,
                               bool allowOversubscribe) {
  if (sessions < 1)
    fail("serve sessions must be >= 1, got " + std::to_string(sessions));
  const int hw = support::hardwareWidth();
  const int autoWorkers = std::max(0, hw - sessions);
  ServePoolPlan plan;
  plan.sessions = sessions;
  plan.poolWorkers = resolveThreadRequest(analysisThreads, autoWorkers);
  if (sessions > hw) {
    plan.warning = std::to_string(sessions) +
                   " sessions exceed hardware concurrency (" +
                   std::to_string(hw) +
                   "); session threads mostly block on IO, so they are kept, "
                   "but expect dispatch contention";
  }
  if (plan.poolWorkers > autoWorkers && !allowOversubscribe) {
    plan.warning = std::to_string(sessions) + " session(s) + " +
                   std::to_string(plan.poolWorkers) +
                   " analysis worker(s) oversubscribe hardware concurrency (" +
                   std::to_string(hw) + "); clamping the shared pool to " +
                   std::to_string(autoWorkers) +
                   " worker(s) — pass -allow-oversubscribe to keep the "
                   "requested width";
    plan.poolWorkers = autoWorkers;
    plan.clamped = true;
  }
  return plan;
}

std::string to_string(AdjointMode mode) {
  switch (mode) {
    case AdjointMode::Serial: return "serial";
    case AdjointMode::Atomic: return "atomic";
    case AdjointMode::Reduction: return "reduction";
    case AdjointMode::FormAD: return "formad";
    case AdjointMode::Hybrid: return "hybrid";
    case AdjointMode::Plain: return "plain";
  }
  return "?";
}

DifferentiateResult differentiate(const Kernel& primal,
                                  const std::vector<std::string>& independents,
                                  const std::vector<std::string>& dependents,
                                  const DriverOptions& dopts) {
  DifferentiateResult result;

  // One worker pool for the whole analysis phase: the race checker's
  // converse queries and FormAD's exploitation queries share it, so a
  // driver invocation spins threads up at most once. A caller-owned pool
  // (serving daemon sessions) wins outright — threads spin up once per
  // process, not per request.
  const int analysisThreads = dopts.analysisPool != nullptr
                                  ? dopts.analysisPool->width()
                                  : resolveAnalysisThreads(dopts.analysisThreads);
  std::unique_ptr<support::SharedAnalysisPool::Client> ownedPool;
  support::SharedAnalysisPool::Client* poolPtr =
      resolvePool(dopts.analysisPool, analysisThreads, ownedPool);

  smt::FaultInject* fault =
      dopts.faultInject != nullptr ? dopts.faultInject : envFaultInjection();
  std::unique_ptr<smt::PersistentVerdictStore> ownedStore;
  smt::PersistentVerdictStore* store = resolveStore(dopts, fault, ownedStore);

  if (dopts.racecheckPrimal) {
    racecheck::RaceCheckOptions ropts = dopts.racecheck;
    ropts.pool = poolPtr;
    ropts.fastpath = dopts.fastpath;
    ropts.solverSteps = dopts.solverStepBudget;
    ropts.deadlineMs = dopts.analysisDeadlineMs;
    ropts.faultInject = fault;
    ropts.store = store;
    result.raceReport = racecheck::checkKernelRaces(primal, ropts);
    long long rcExhausted = 0, rcDegraded = 0;
    for (const auto& region : result.raceReport.regions) {
      rcExhausted += region.budgetExhaustedChecks;
      rcDegraded += region.degradedPairs;
    }
    if (rcExhausted > 0 || rcDegraded > 0)
      result.warnings.push_back(
          "race check of primal '" + primal.name +
          "' degraded under resource limits: " + std::to_string(rcExhausted) +
          " budget-exhausted check(s), " + std::to_string(rcDegraded) +
          " pair(s) left undecided conservatively");
    switch (result.raceReport.overall()) {
      case racecheck::RaceVerdict::Racy: {
        std::string msg = "refusing to differentiate '" + primal.name +
                          "': the primal parallel loop has a data race";
        for (const auto& region : result.raceReport.regions)
          for (const auto& w : region.witnesses) msg += "\n  " + w.render();
        fail(msg);
        break;
      }
      case racecheck::RaceVerdict::Unknown:
        result.warnings.push_back(
            "race check of primal '" + primal.name +
            "' is inconclusive; differentiation proceeds on the usual "
            "assumption that the primal is race-free");
        break;
      case racecheck::RaceVerdict::RaceFree:
        break;
    }
  }

  ad::ReverseOptions opts;
  opts.independents = independents;
  opts.dependents = dependents;
  opts.name = primal.name + "_b_" + to_string(dopts.mode);
  opts.omitTapeFreePrimalSweep = dopts.omitTapeFreePrimalSweep;

  switch (dopts.mode) {
    case AdjointMode::Serial:
      opts.serialize = true;
      break;
    case AdjointMode::Atomic:
      opts.guardPolicy = [](const For&, const std::string&) {
        return Guard::Atomic;
      };
      break;
    case AdjointMode::Reduction:
      opts.guardPolicy = [](const For&, const std::string&) {
        return Guard::Reduction;
      };
      break;
    case AdjointMode::FormAD:
    case AdjointMode::Hybrid: {
      core::AnalyzeOptions aopts;
      aopts.exploit.threads = analysisThreads;
      aopts.exploit.pool = poolPtr;
      aopts.exploit.fastpath = dopts.fastpath;
      aopts.exploit.solverSteps = dopts.solverStepBudget;
      aopts.exploit.deadlineMs = dopts.analysisDeadlineMs;
      aopts.exploit.faultInject = fault;
      aopts.exploit.store = store;
      // Hybrid consumes per-(var, access-site) verdicts, so replay must
      // answer every pair instead of taking the per-variable early exit.
      aopts.exploit.siteVerdicts = dopts.mode == AdjointMode::Hybrid;
      aopts.model.absint = dopts.absint;
      aopts.model.paramValues = dopts.racecheck.paramValues;
      result.analysis =
          core::analyzeKernel(primal, independents, dependents, aopts);
      // Satisfiability safeguard: contradictory knowledge means the primal
      // itself is racy; an adjoint generated from it would inherit the bug.
      for (const auto& r : result.analysis.regions)
        if (!r.knowledgeContradiction.empty())
          fail("refusing to differentiate '" + primal.name + "': " +
               r.knowledgeContradiction);
      // Graceful degradation is never silent: a budget or deadline that
      // forced safeguards gets a warning (the adjoint is correct either
      // way). Hybrid keeps the blast radius per site; classic FormAD keeps
      // whole variables atomic.
      if (result.analysis.budgetExhaustedChecks() > 0 ||
          result.analysis.degradedPairs() > 0)
        result.warnings.push_back(
            "FormAD analysis of '" + primal.name +
            "' degraded under resource limits: " +
            std::to_string(result.analysis.budgetExhaustedChecks()) +
            " budget-exhausted check(s), " +
            std::to_string(result.analysis.degradedPairs()) +
            (dopts.mode == AdjointMode::Hybrid
                 ? " pair(s) guarded selectively (hybrid safeguard)"
                 : " pair(s) kept atomic conservatively"));
      if (dopts.mode == AdjointMode::Hybrid)
        opts.siteGuardPolicy = core::hybridPolicy(result.analysis);
      else
        opts.guardPolicy = core::formadPolicy(result.analysis);
      break;
    }
    case AdjointMode::Plain:
      break;  // null policy: everything plainly shared
  }

  ad::ReverseResult rr = ad::buildAdjoint(primal, opts);
  result.adjoint = std::move(rr.adjoint);
  result.adjointParams = std::move(rr.adjointParams);
  result.loopReports = std::move(rr.loopReports);
  return result;
}

DifferentiateResult differentiate(const Kernel& primal,
                                  const std::vector<std::string>& independents,
                                  const std::vector<std::string>& dependents,
                                  AdjointMode mode,
                                  bool omitTapeFreePrimalSweep) {
  DriverOptions dopts;
  dopts.mode = mode;
  dopts.omitTapeFreePrimalSweep = omitTapeFreePrimalSweep;
  return differentiate(primal, independents, dependents, dopts);
}

core::KernelAnalysis analyze(const Kernel& primal,
                             const std::vector<std::string>& independents,
                             const std::vector<std::string>& dependents,
                             int analysisThreads,
                             smt::FastPathMode fastpath) {
  core::AnalyzeOptions aopts;
  aopts.exploit.threads = resolveAnalysisThreads(analysisThreads);
  aopts.exploit.fastpath = fastpath;
  auto ownedPool =
      support::SharedAnalysisPool::makePrivateClient(aopts.exploit.threads);
  aopts.exploit.pool = ownedPool.get();
  return core::analyzeKernel(primal, independents, dependents, aopts);
}

core::KernelAnalysis analyze(const Kernel& primal,
                             const std::vector<std::string>& independents,
                             const std::vector<std::string>& dependents) {
  return core::analyzeKernel(primal, independents, dependents);
}

core::KernelAnalysis analyze(const Kernel& primal,
                             const std::vector<std::string>& independents,
                             const std::vector<std::string>& dependents,
                             const DriverOptions& opts) {
  core::AnalyzeOptions aopts;
  aopts.exploit.threads = resolveAnalysisThreads(opts.analysisThreads);
  aopts.exploit.fastpath = opts.fastpath;
  aopts.exploit.solverSteps = opts.solverStepBudget;
  aopts.exploit.deadlineMs = opts.analysisDeadlineMs;
  // Analyze-only callers opt into per-site verdicts via the mode knob (the
  // serving daemon's "safeguard": "hybrid" request option lands here).
  aopts.exploit.siteVerdicts = opts.mode == AdjointMode::Hybrid;
  smt::FaultInject* fault =
      opts.faultInject != nullptr ? opts.faultInject : envFaultInjection();
  aopts.exploit.faultInject = fault;
  std::unique_ptr<smt::PersistentVerdictStore> ownedStore;
  aopts.exploit.store = resolveStore(opts, fault, ownedStore);
  aopts.model.absint = opts.absint;
  aopts.model.paramValues = opts.racecheck.paramValues;
  if (opts.analysisPool != nullptr)
    aopts.exploit.threads = opts.analysisPool->width();
  std::unique_ptr<support::SharedAnalysisPool::Client> ownedPool;
  aopts.exploit.pool =
      resolvePool(opts.analysisPool, aopts.exploit.threads, ownedPool);
  return core::analyzeKernel(primal, independents, dependents, aopts);
}

}  // namespace formad::driver
