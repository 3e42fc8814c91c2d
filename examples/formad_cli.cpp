// formad_cli: a Tapenade-style command-line front end.
//
//   formad_cli <file.fad> -head <kernel> -indep a,b -dep c [-mode MODE]
//              [-analyze-only] [-emit-c]
//
// Reads a DSL source file, runs the FormAD analysis, and prints the
// generated adjoint kernel (DSL by default, a compilable C translation
// unit with -emit-c). MODE is one of: formad (default), atomic,
// reduction, serial, plain, tangent.
//
// -disasm prints the bytecode VM's register listing of the generated
// kernel to stderr (see exec/bytecode.h).
//
// -racecheck runs the static primal race checker (racecheck/) before
// differentiating: a proven race aborts with the counterexample witness;
// an inconclusive verdict is reported as a warning. With -racecheck-only
// the verdict report is printed and nothing is differentiated.
// -bind n=v,m=w pins never-written integer parameters to concrete values
// for the checker; -coloring a,b declares conflict-free coloring arrays.
//
// -fastpath off|syntactic|full selects the tiered disjointness deciders
// consulted before the full solver (default full). Every fast verdict is
// exact, so the setting changes speed and the tier breakdown only — never
// any verdict or report.
//
// -solver-budget N|unlimited caps each solver check at N deterministic
// internal steps (checks that run out degrade to atomic adjoints /
// undecided race pairs); -deadline-ms N puts a wall-clock deadline on each
// region's analysis (liveness only — degraded, never hung).
//
// -cache-dir <path> persists solver verdicts to a cross-run
// content-addressed store: a repeat invocation on an unchanged kernel is
// answered from disk with zero tier-2 solver checks, and after an edit
// only the contexts whose fingerprints moved are re-proven. Serving is
// verdict-neutral — every report and the generated adjoint are
// byte-identical with or without the flag. -cache-stats prints the
// per-region cache breakdown (core::describeCache) plus store-level IO
// counters to stderr.
//
// -absint on|off (default off) runs the abstract interpreter (src/absint/)
// before analysis: sound interval/stride invariants are injected into the
// knowledge base and guide the t1-absint fast-path decider. Solver work
// shifts to cheaper tiers; verdicts can only improve (a stride invariant
// may prove a collision pair SAFE that the seed model cannot), never
// weaken, and off is byte-identical to the seed.
//
// -lint runs the standalone static linter (absint/lint.h) over the head
// kernel (or every kernel when -head is omitted), prints the findings, and
// exits 1 iff anything was flagged. Solver-free; -pin values are honored.
//
// -pin name=value (repeatable) pins one never-written integer parameter,
// merging into the same pin set as -bind; consumed by the race checker,
// the abstract interpreter, and the linter.
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "absint/lint.h"
#include "ad/forward.h"
#include "codegen/cgen.h"
#include "driver/driver.h"
#include "exec/bytecode.h"
#include "exec/kernel_info.h"
#include "formad/formad.h"
#include "ir/printer.h"
#include "parser/parser.h"
#include "racecheck/racecheck.h"
#include "smt/diskcache.h"
#include "support/flags.h"

using namespace formad;

namespace {

std::vector<std::string> splitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int usage() {
  std::cerr
      << "usage: formad_cli <file> -head <kernel> -indep a,b -dep c\n"
         "                  [-mode formad|hybrid|atomic|reduction|serial|"
         "plain|tangent]\n"
         "                  [-safeguard formad|hybrid|atomic|reduction]\n"
         "                      (safeguard strategy — alias of the matching "
         "-mode;\n"
         "                       hybrid guards residual unproven increments "
         "per access site)\n"
         "                  [-disasm]\n"
         "                  [-analyze-only]\n"
         "                  [-racecheck] [-racecheck-only]\n"
         "                  [-bind name=value,...] [-coloring array,...]\n"
         "                  [-analysis-threads N]   (0 = auto-detect)\n"
         "                  [-fastpath off|syntactic|full]   (default full)\n"
         "                  [-solver-budget N|unlimited]   (steps per check)\n"
         "                  [-deadline-ms N]   (per-region analysis "
         "deadline)\n"
         "                  [-cache-dir <path>]   (persistent verdict "
         "cache)\n"
         "                  [-cache-stats]   (print cache breakdown to "
         "stderr)\n"
         "                  [-absint on|off]   (abstract-interpretation "
         "invariants; default off)\n"
         "                  [-lint]   (static bounds/race linter; exit 1 "
         "iff findings)\n"
         "                  [-pin name=value]   (repeatable parameter pin "
         "for -lint/-absint/racecheck)\n";
  return 2;
}

/// Validated integer parse for numeric flag values (support::parseIntFlag
/// with the CLI exit convention): a typo is a diagnosed error printed to
/// stderr followed by the usage exit status, never a silently truncated
/// value.
long long parseIntFlag(const std::string& flag, const std::string& text,
                       long long min, long long max, const char* expected) {
  try {
    return support::parseIntFlag(flag, text, min, max, expected);
  } catch (const Error& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

/// Parses "-bind n=20,c=0" pin lists.
std::map<std::string, long long> parseBindings(const std::string& s) {
  std::map<std::string, long long> pins;
  for (const std::string& item : splitCommas(s)) {
    size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      std::cerr << "bad -bind entry '" << item << "' (expected name=value)\n";
      std::exit(2);
    }
    pins[item.substr(0, eq)] =
        parseIntFlag("-bind", item.substr(eq + 1), INT64_MIN, INT64_MAX,
                     "name=value with an integer value");
  }
  return pins;
}

/// Prints the store-level IO counters of the persistent verdict cache
/// (-cache-stats; stable format, golden-testable by the CI smoke job).
void printStoreStats(const smt::PersistentVerdictStore& store) {
  const smt::PersistentVerdictStore::Stats s = store.stats();
  std::cerr << "cache store '" << store.dir() << "': checks " << s.checkHits
            << " hit (" << s.checkMemoryHits << " memory) / " << s.checkMisses
            << " miss / " << s.checkStores << " stored; tasks " << s.taskHits
            << " hit (" << s.taskMemoryHits << " memory) / " << s.taskMisses
            << " miss / " << s.taskStores << " stored\n";
}

/// Prints the register-VM listing of `kernel` to stderr (-disasm).
void disassemble(const ir::Kernel& kernel) {
  auto clone = kernel.clone();
  exec::KernelInfo info = exec::buildKernelInfo(*clone);
  exec::BytecodeEngine eng(*clone, info);
  std::cerr << eng.disassemble();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string file = argv[1];
  std::string head;
  std::vector<std::string> indeps, deps;
  std::string mode = "formad";
  bool analyzeOnly = false;
  bool emitC = false;
  bool disasm = false;
  bool racecheckFlag = false;
  bool racecheckOnly = false;
  int analysisThreads = 0;  // 0 = auto (hardware concurrency)
  smt::FastPathMode fastpath = smt::FastPathMode::Full;
  long long solverBudget = 0;  // steps per solver check; 0 = unlimited
  int deadlineMs = 0;          // per-region analysis deadline; 0 = none
  std::string cacheDir;        // "" = no persistent verdict cache
  bool cacheStats = false;
  bool absintFlag = false;
  bool lintOnly = false;
  racecheck::RaceCheckOptions rcOpts;

  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "-head") head = next();
    else if (arg == "-indep") indeps = splitCommas(next());
    else if (arg == "-dep") deps = splitCommas(next());
    else if (arg == "-mode") mode = next();
    else if (arg == "-safeguard") {
      // Safeguard-strategy spelling of the mode knob (restricted to the
      // strategies that actually guard adjoints).
      mode = next();
      if (mode != "formad" && mode != "hybrid" && mode != "atomic" &&
          mode != "reduction") {
        std::cerr << "bad -safeguard value '" << mode
                  << "' (expected formad, hybrid, atomic, or reduction)\n";
        return 2;
      }
    }
    else if (arg == "-disasm") disasm = true;
    else if (arg == "-analyze-only") analyzeOnly = true;
    else if (arg == "-emit-c") emitC = true;
    else if (arg == "-racecheck") racecheckFlag = true;
    else if (arg == "-racecheck-only") racecheckOnly = true;
    else if (arg == "-bind") rcOpts.paramValues = parseBindings(next());
    else if (arg == "-lint") lintOnly = true;
    else if (arg == "-pin") {
      std::string item = next();
      size_t eq = item.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::cerr << "bad -pin entry '" << item << "' (expected name=value)\n";
        return 2;
      }
      rcOpts.paramValues[item.substr(0, eq)] =
          parseIntFlag("-pin", item.substr(eq + 1), INT64_MIN, INT64_MAX,
                       "name=value with an integer value");
    }
    else if (arg == "-absint" || arg.rfind("-absint=", 0) == 0) {
      std::string v = arg == "-absint" ? next() : arg.substr(8);
      if (v == "on") absintFlag = true;
      else if (v == "off") absintFlag = false;
      else {
        std::cerr << "bad -absint value '" << v
                  << "' (expected on or off)\n";
        return 2;
      }
    }
    else if (arg == "-coloring") {
      for (const std::string& a : splitCommas(next()))
        rcOpts.colorings.insert(a);
    }
    else if (arg == "-analysis-threads") {
      analysisThreads = static_cast<int>(
          parseIntFlag(arg, next(), 0, INT32_MAX,
                       "an integer >= 0; 0 = auto-detect"));
    }
    else if (arg == "-solver-budget") {
      std::string v = next();
      if (v == "unlimited")
        solverBudget = 0;
      else
        solverBudget = parseIntFlag(arg, v, 1, INT64_MAX,
                                    "a step count >= 1, or 'unlimited'");
    }
    else if (arg == "-cache-dir") cacheDir = next();
    else if (arg == "-cache-stats") cacheStats = true;
    else if (arg == "-deadline-ms") {
      deadlineMs = static_cast<int>(parseIntFlag(
          arg, next(), 0, INT32_MAX, "a millisecond count >= 0; 0 = none"));
    }
    else if (arg == "-fastpath" || arg.rfind("-fastpath=", 0) == 0) {
      std::string v = arg == "-fastpath" ? next() : arg.substr(10);
      if (v == "off") fastpath = smt::FastPathMode::Off;
      else if (v == "syntactic") fastpath = smt::FastPathMode::Syntactic;
      else if (v == "full") fastpath = smt::FastPathMode::Full;
      else {
        std::cerr << "bad -fastpath value '" << v
                  << "' (expected off, syntactic, or full)\n";
        return 2;
      }
    }
    else return usage();
  }

  std::ifstream in(file);
  if (!in) {
    std::cerr << "cannot open " << file << "\n";
    return 1;
  }
  std::stringstream buf;
  buf << in.rdbuf();

  try {
    ir::Program program = parser::parseProgram(buf.str());
    if (head.empty() && program.kernels().size() == 1)
      head = program.kernels()[0]->name;

    if (lintOnly) {
      // Standalone static lint: no solver, no differentiation. Exit 1 iff
      // any linted kernel has findings (the CI smoke job keys off this).
      absint::LintOptions lopts;
      lopts.paramValues = rcOpts.paramValues;
      bool anyFindings = false;
      for (const auto& kp : program.kernels()) {
        if (!head.empty() && kp->name != head) continue;
        absint::LintReport report = absint::lintKernel(*kp, lopts);
        std::cout << report.render();
        anyFindings = anyFindings || !report.clean();
      }
      return anyFindings ? 1 : 0;
    }

    const ir::Kernel& primal = program.get(head);

    // The CLI owns the persistent store (rather than handing the driver a
    // cacheDir) so -cache-stats can read the IO counters afterwards.
    std::unique_ptr<smt::PersistentVerdictStore> store;
    if (!cacheDir.empty())
      store = std::make_unique<smt::PersistentVerdictStore>(cacheDir);

    rcOpts.solverSteps = solverBudget;
    rcOpts.deadlineMs = deadlineMs;
    rcOpts.store = store.get();
    if (racecheckOnly) {
      auto report = racecheck::checkKernelRaces(primal, rcOpts);
      std::cout << report.describe();
      if (cacheStats && store != nullptr) printStoreStats(*store);
      return report.overall() == racecheck::RaceVerdict::Racy ? 1 : 0;
    }

    if (indeps.empty() || deps.empty()) {
      std::cerr << "need -indep and -dep\n";
      return 2;
    }

    if (mode == "tangent") {
      ad::TangentOptions topts;
      topts.independents = indeps;
      topts.dependents = deps;
      auto tr = ad::buildTangent(primal, topts);
      std::cout << (emitC ? codegen::emitC(*tr.tangent)
                          : ir::printKernel(*tr.tangent));
      if (disasm) disassemble(*tr.tangent);
      return 0;
    }

    driver::DriverOptions analyzeOpts;
    // Hybrid analyzes with per-site verdicts so the report shows which
    // access sites stay shared and which need a residual guard.
    if (mode == "hybrid") analyzeOpts.mode = driver::AdjointMode::Hybrid;
    analyzeOpts.analysisThreads = analysisThreads;
    analyzeOpts.fastpath = fastpath;
    analyzeOpts.absint = absintFlag;
    analyzeOpts.racecheck = rcOpts;
    analyzeOpts.solverStepBudget = solverBudget;
    analyzeOpts.analysisDeadlineMs = deadlineMs;
    analyzeOpts.verdictStore = store.get();
    auto analysis = driver::analyze(primal, indeps, deps, analyzeOpts);
    std::cerr << core::describe(analysis);
    std::cerr << core::describeTiers(analysis);
    if (cacheStats) {
      std::cerr << core::describeCache(analysis);
      if (store != nullptr) printStoreStats(*store);
    }
    if (analyzeOnly) return 0;

    driver::DriverOptions dopts;
    if (mode == "formad") dopts.mode = driver::AdjointMode::FormAD;
    else if (mode == "hybrid") dopts.mode = driver::AdjointMode::Hybrid;
    else if (mode == "atomic") dopts.mode = driver::AdjointMode::Atomic;
    else if (mode == "reduction") dopts.mode = driver::AdjointMode::Reduction;
    else if (mode == "serial") dopts.mode = driver::AdjointMode::Serial;
    else if (mode == "plain") dopts.mode = driver::AdjointMode::Plain;
    else return usage();
    dopts.racecheckPrimal = racecheckFlag;
    dopts.racecheck = rcOpts;
    dopts.analysisThreads = analysisThreads;
    dopts.fastpath = fastpath;
    dopts.absint = absintFlag;
    dopts.solverStepBudget = solverBudget;
    dopts.analysisDeadlineMs = deadlineMs;
    dopts.verdictStore = store.get();

    auto dr = driver::differentiate(primal, indeps, deps, dopts);
    if (racecheckFlag) std::cerr << dr.raceReport.describe();
    for (const auto& w : dr.warnings) std::cerr << "warning: " << w << "\n";
    // Hybrid surfaces the builder's per-increment choice (stable format;
    // absent in every other mode, keeping their output byte-identical).
    if (dopts.mode == driver::AdjointMode::Hybrid) {
      auto guardName = [](ir::Guard g) {
        switch (g) {
          case ir::Guard::None: return "shared";
          case ir::Guard::Atomic: return "atomic";
          case ir::Guard::Reduction: return "local-accumulate";
        }
        return "?";
      };
      for (const auto& rep : dr.loopReports) {
        if (rep.siteDecisions.empty()) continue;
        std::cerr << "hybrid safeguards (region counter '"
                  << rep.primalLoop->var << "'):\n";
        for (const auto& d : rep.siteDecisions)
          std::cerr << "  " << d.primalVar << " increment from "
                    << (d.site != nullptr ? ir::printExpr(*d.site)
                                          : std::string("<no provenance>"))
                    << ": " << guardName(d.guard) << "\n";
      }
    }
    std::cout << (emitC ? codegen::emitC(*dr.adjoint)
                        : ir::printKernel(*dr.adjoint));
    if (disasm) disassemble(*dr.adjoint);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
