// The request content of the benchmark: the six Sec. 7 kernels of the
// paper (Table 1), the racy mutants and the per-layer metric table the
// traced run fills in.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "kernels/spec.h"

namespace perfbench {

struct PaperKernel {
  std::string cls;  // class name used in metrics and fixtures
  formad::kernels::KernelSpec spec;
};

/// stencil_r1, stencil_r8, gfmc, gfmc_fused, lbm, greengauss.
[[nodiscard]] std::vector<PaperKernel> paperKernels();
/// The racy mutants every racecheck class runs on.
[[nodiscard]] std::vector<PaperKernel> racyMutants();
/// The lint class's kernel (a racy mutant the solver-free lint flags).
[[nodiscard]] PaperKernel lintKernel();

/// Per-layer figures of one traced run. Times are per timed op unless the
/// name says otherwise, except the parser, formad, smt-tier and ad figures
/// of adjoint_run, which are per kernel set-up; a layer the workload does
/// not exercise stays 0.
struct Layers {
  double parseMs = 0;
  double analyzeMs = 0, planMs = 0, evaluateMs = 0, replayMs = 0;
  double modelBuildMs = 0, modelAssertions = 0, uniqueExprs = 0;
  double queries = 0, tier0 = 0, tier1 = 0, tier2 = 0, cacheHits = 0;
  double taskHits = 0, taskMisses = 0, taskStores = 0;
  double checkHits = 0, checkMisses = 0, checkStores = 0;
  double memoryHits = 0, flightJoins = 0, taskHitRate = 0;
  double storeFiles = 0, storeBytes = 0;
  double tasksSpliced = 0, tasksPersisted = 0, freshSolverChecks = 0;
  double serviceMs = 0, dispatchMs = 0, requestParseUs = 0;
  double jobsRun = 0, tasksStolen = 0, tasksOwnerRun = 0;
  double busyWorkers = 0, queueDepth = 0;
  double racecheckServiceMs = 0, lintServiceMs = 0;
  double reverseMs = 0, adjointStmts = 0;
  double vmCompileMs = 0, vmRunMs = 0, vmNsPerPoint = 0, tapePeakBytes = 0;
  double opsPerPoint = 0;
  double emitMs = 0, ccMs = 0, nativeRunMs = 0, nativeNsPerPoint = 0;
  double sourceBytes = 0;
  /// Traced balanced p50 over the untraced one of the same run, minus 1.
  double overheadPct = 0;
};

/// Appends every per-layer metric, plus self time per layer and the span
/// count from `tracer` (per timed op), to `out`.
void addLayerMetrics(Outcome& out, const Layers& l, const Tracer& tracer,
                     long long timedOps);

/// Counts the statements (';'-terminated lines) of printed IR.
[[nodiscard]] int statementCount(const std::string& printed);

}  // namespace perfbench
