#include "paper.h"

#include <algorithm>

#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/lbm.h"
#include "kernels/mutants.h"
#include "kernels/stencil.h"

namespace perfbench {

namespace fk = formad::kernels;

std::vector<PaperKernel> paperKernels() {
  return {{"stencil_r1", fk::stencilSpec(1)},
          {"stencil_r8", fk::stencilSpec(8)},
          {"gfmc", fk::gfmcSplitSpec()},
          {"gfmc_fused", fk::gfmcFusedSpec()},
          {"lbm", fk::lbmSpec()},
          {"greengauss", fk::greenGaussSpec()}};
}

std::vector<PaperKernel> racyMutants() {
  return {{"stencil_racy", fk::stencilRacySpec()},
          {"gather_racy", fk::gatherRacySpec()},
          {"sum_racy", fk::sumRacySpec()}};
}

PaperKernel lintKernel() {
  return {"stencil_stride_racy", fk::stencilStrideRacySpec()};
}

void addLayerMetrics(Outcome& out, const Layers& l, const Tracer& tracer,
                     long long timedOps) {
  auto add = [&](const char* name, double v, const char* unit) {
    out.metrics.push_back({name, v, unit});
  };
  add("parser.parse_ms", l.parseMs, "ms");
  add("formad.analyze_ms", l.analyzeMs, "ms");
  add("formad.plan_ms", l.planMs, "ms");
  add("formad.evaluate_ms", l.evaluateMs, "ms");
  add("formad.replay_ms", l.replayMs, "ms");
  add("formad.model_build_ms", l.modelBuildMs, "ms");
  add("formad.model_assertions", l.modelAssertions, "count");
  add("formad.unique_exprs", l.uniqueExprs, "count");
  add("smt.queries", l.queries, "count");
  add("smt.tier0_hits", l.tier0, "count");
  add("smt.tier1_hits", l.tier1, "count");
  add("smt.tier2_checks", l.tier2, "count");
  add("smt.cache_hits", l.cacheHits, "count");
  add("store.task_hits", l.taskHits, "count");
  add("store.task_misses", l.taskMisses, "count");
  add("store.task_stores", l.taskStores, "count");
  add("store.check_hits", l.checkHits, "count");
  add("store.check_misses", l.checkMisses, "count");
  add("store.check_stores", l.checkStores, "count");
  add("store.memory_hits", l.memoryHits, "count");
  add("store.flight_joins", l.flightJoins, "count");
  add("store.task_hit_rate", l.taskHitRate, "ratio");
  add("store.files", l.storeFiles, "count");
  add("store.bytes", l.storeBytes, "B");
  add("formad.tasks_spliced", l.tasksSpliced, "count");
  add("formad.tasks_persisted", l.tasksPersisted, "count");
  add("formad.fresh_solver_checks", l.freshSolverChecks, "count");
  add("server.service_ms", l.serviceMs, "ms");
  add("server.dispatch_ms", l.dispatchMs, "ms");
  add("server.request_parse_us", l.requestParseUs, "us");
  add("pool.jobs_run", l.jobsRun, "count");
  add("pool.tasks_stolen", l.tasksStolen, "count");
  add("pool.tasks_owner_run", l.tasksOwnerRun, "count");
  add("pool.busy_workers", l.busyWorkers, "count");
  add("pool.queue_depth", l.queueDepth, "count");
  add("racecheck.service_ms", l.racecheckServiceMs, "ms");
  add("absint.lint_service_ms", l.lintServiceMs, "ms");
  add("ad.reverse_ms", l.reverseMs, "ms");
  add("ad.adjoint_stmts", l.adjointStmts, "count");
  add("exec.vm_compile_ms", l.vmCompileMs, "ms");
  add("exec.vm_run_ms", l.vmRunMs, "ms");
  add("exec.vm_ns_per_point", l.vmNsPerPoint, "ns");
  add("exec.tape_peak_bytes", l.tapePeakBytes, "B");
  add("exec.ops_per_point", l.opsPerPoint, "count");
  add("codegen.emit_ms", l.emitMs, "ms");
  add("codegen.cc_ms", l.ccMs, "ms");
  add("codegen.native_run_ms", l.nativeRunMs, "ms");
  add("codegen.native_ns_per_point", l.nativeNsPerPoint, "ns");
  add("codegen.source_bytes", l.sourceBytes, "B");

  // Self time per layer span, per timed op.
  static const std::pair<const char*, const char*> kSelf[] = {
      {"op", "self.op_ms"},
      {"parser.parse", "self.parser_ms"},
      {"formad.analyze", "self.formad_ms"},
      {"ad.reverse", "self.ad_ms"},
      {"server.request", "self.server_dispatch_ms"},
      {"server.service", "self.server_service_ms"},
      {"exec.vm_run", "self.exec_ms"},
      {"codegen.native_run", "self.codegen_ms"}};
  const auto self = tracer.selfMsByName();
  const double ops = static_cast<double>(std::max<long long>(1, timedOps));
  for (const auto& [span, metric] : kSelf) {
    const auto it = self.find(span);
    add(metric, it == self.end() ? 0.0 : it->second / ops, "ms");
  }
  add("trace.spans", static_cast<double>(tracer.spanCount()), "count");
  add("trace.overhead_pct", l.overheadPct, "%");
}

int statementCount(const std::string& printed) {
  return static_cast<int>(std::count(printed.begin(), printed.end(), ';'));
}

}  // namespace perfbench
