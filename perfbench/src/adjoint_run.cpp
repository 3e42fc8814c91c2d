// adjoint_run: the generated FormAD adjoints of the four figure kernels
// (stencil r1, stencil r8, GFMC, Green-Gauss), each run on the bytecode VM
// and as natively compiled C at OpenMP width 2. Differentiation and
// compiles happen in set-up; inputs and adjoint seeds are rebound outside
// the timed call before every op, so values never drift. The traced set-up
// splits differentiate at the parser, formad and ad boundaries, which gives
// those layers' metrics.
#include <omp.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "codegen/cgen.h"
#include "codegen/native.h"
#include "common.h"
#include "driver/driver.h"
#include "exec/interp.h"
#include "formad/formad.h"
#include "ir/printer.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/stencil.h"
#include "paper.h"
#include "parser/parser.h"

namespace perfbench {

namespace {

using namespace formad;

constexpr int kThreads = 2;
constexpr int kSetupReps = 3;
// Timed ops per class per second of --seconds.
constexpr double kRate = 18;

/// Problem sizes: `vm` for the bytecode VM (also the size of every
/// correctness check), `native` for the compiled C, each chosen so one op
/// takes a few ms to a few tens of ms.
struct Size {
  long long vm = 0;
  long long native = 0;
};

struct FigureKernel {
  PaperKernel kernel;
  Size size;
  /// Binds the primal inputs of a problem of `n` points.
  void (*bind)(exec::Inputs&, long long n, kernels::Rng&);
};

void bindR1(exec::Inputs& io, long long n, kernels::Rng& rng) {
  kernels::bindStencil(io, 1, n, rng);
}
void bindR8(exec::Inputs& io, long long n, kernels::Rng& rng) {
  kernels::bindStencil(io, 8, n, rng);
}
// GFMC points are walkers x spin states (64 states per walker).
void bindGfmc(exec::Inputs& io, long long n, kernels::Rng& rng) {
  kernels::GfmcConfig cfg;
  cfg.nw = n / cfg.ns;
  kernels::bindGfmc(io, cfg, rng);
}
void bindGreenGauss(exec::Inputs& io, long long n, kernels::Rng& rng) {
  kernels::GreenGaussConfig cfg;
  cfg.nodes = n;
  kernels::bindGreenGauss(io, cfg, rng);
}

std::vector<FigureKernel> figureKernels() {
  std::vector<FigureKernel> out;
  for (PaperKernel& k : paperKernels()) {
    if (k.cls == "stencil_r1")
      out.push_back({std::move(k), {50000, 1000000}, bindR1});
    else if (k.cls == "stencil_r8")
      out.push_back({std::move(k), {10000, 300000}, bindR8});
    else if (k.cls == "gfmc")
      out.push_back({std::move(k), {64 * 128, 64 * 2048}, bindGfmc});
    else if (k.cls == "greengauss")
      out.push_back({std::move(k), {50000, 500000}, bindGreenGauss});
  }
  return out;
}

/// A compiled adjoint plus the pristine inputs each op starts from.
struct Prepared {
  const FigureKernel* fig = nullptr;
  std::unique_ptr<ir::Kernel> primal;
  core::KernelAnalysis analysis;
  std::unique_ptr<ir::Kernel> adjoint;
  std::map<std::string, std::string> adjointParams;
  std::unique_ptr<exec::Executor> vm;
  std::unique_ptr<codegen::NativeKernel> native;
  exec::Inputs vmInputs, nativeInputs;
  exec::Inputs vmWork, nativeWork;  // what each op runs on
  double vmReference = 0, nativeReference = 0;  // gradient checksums
  double vmCompileMs = 0, emitMs = 0, ccMs = 0;
  size_t sourceBytes = 0;
};

/// Binds primal inputs of `n` points plus the adjoint arrays: seeded
/// output adjoints for the dependents, zero for the other independents.
exec::Inputs bindAll(const Prepared& p, long long n, std::uint64_t seed) {
  exec::Inputs io;
  kernels::Rng rng(seed);
  p.fig->bind(io, n, rng);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  for (const auto& v : p.fig->kernel.spec.dependents) {
    const exec::ArrayValue& a = io.array(v);
    std::vector<long long> dims;
    for (int k = 0; k < a.rank(); ++k) dims.push_back(a.dim(k));
    auto& b =
        io.bindArray(p.adjointParams.at(v), exec::ArrayValue::reals(dims));
    for (double& x : b.realData()) x = u(rng);
  }
  for (const auto& v : p.fig->kernel.spec.independents) {
    if (io.has(p.adjointParams.at(v))) continue;
    const exec::ArrayValue& a = io.array(v);
    std::vector<long long> dims;
    for (int k = 0; k < a.rank(); ++k) dims.push_back(a.dim(k));
    io.bindArray(p.adjointParams.at(v), exec::ArrayValue::reals(dims));
  }
  return io;
}

/// Copies the real arrays of `from` into the same-shaped arrays of `to`
/// without reallocating (the kernel writes only real arrays).
void restore(exec::Inputs& to, const exec::Inputs& from,
             const ir::Kernel& adjoint) {
  for (const auto& param : adjoint.params) {
    if (!param.type.isArray() || !param.type.isReal()) continue;
    const auto& src = from.array(param.name).realData();
    std::copy(src.begin(), src.end(),
              to.array(param.name).realData().begin());
  }
}

double gradientChecksum(const Prepared& p, const exec::Inputs& io) {
  double s = 0;
  for (const auto& v : p.fig->kernel.spec.independents)
    for (double x : io.array(p.adjointParams.at(v)).realData()) s += x;
  return s;
}

exec::ExecOptions vmOptions(int threads) {
  exec::ExecOptions o;
  o.mode = threads > 1 ? exec::ExecMode::OpenMP : exec::ExecMode::Serial;
  o.numThreads = threads;
  return o;
}

/// parseKernel + differentiate(FormAD) at one analysis thread; traced, the
/// same pipeline split at the layer boundaries with a span around each
/// call, as driver::differentiate's FormAD branch runs it.
void differentiate(Prepared& p, Tracer& tracer) {
  const kernels::KernelSpec& spec = p.fig->kernel.spec;
  if (!tracer.enabled()) {
    p.primal = parser::parseKernel(spec.source);
    driver::DriverOptions d;
    d.analysisThreads = 1;
    driver::DifferentiateResult r = driver::differentiate(
        *p.primal, spec.independents, spec.dependents, d);
    p.analysis = std::move(r.analysis);
    p.adjoint = std::move(r.adjoint);
    p.adjointParams = std::move(r.adjointParams);
    return;
  }
  {
    Tracer::Scope s(tracer, "parser.parse", -1);
    p.primal = parser::parseKernel(spec.source);
  }
  {
    Tracer::Scope s(tracer, "formad.analyze", -1);
    core::AnalyzeOptions aopts;
    aopts.exploit.threads = 1;
    p.analysis = core::analyzeKernel(*p.primal, spec.independents,
                                     spec.dependents, aopts);
  }
  for (const auto& r : p.analysis.regions)
    if (!r.knowledgeContradiction.empty())
      throw std::runtime_error("contradictory knowledge in " +
                               p.fig->kernel.cls);
  Tracer::Scope s(tracer, "ad.reverse", -1);
  ad::ReverseOptions ro;
  ro.independents = spec.independents;
  ro.dependents = spec.dependents;
  ro.name =
      p.primal->name + "_b_" + driver::to_string(driver::AdjointMode::FormAD);
  ro.guardPolicy = core::formadPolicy(p.analysis);
  ad::ReverseResult rr = ad::buildAdjoint(*p.primal, ro);
  p.adjoint = std::move(rr.adjoint);
  p.adjointParams = std::move(rr.adjointParams);
}

/// Checks the analysis against Table 1 and the report and adjoint text
/// against the fixtures recorded from the untraced path, so the traced
/// path's outputs must be byte-equal to it.
bool checkDifferentiate(const Golden& golden, const Prepared& p) {
  const std::string& cls = p.fig->kernel.cls;
  std::vector<std::string> rejected;
  for (const auto& region : p.analysis.regions)
    for (const auto& v : region.vars)
      if (!v.safe) rejected.push_back(v.var);
  std::sort(rejected.begin(), rejected.end());
  rejected.erase(std::unique(rejected.begin(), rejected.end()),
                 rejected.end());
  const Golden::Verdict& want = golden.analyzeVerdict(cls);
  bool ok = rejected.empty() == want.safe && rejected == want.rejected;
  if (!ok) std::cerr << "verdict mismatch on " << cls << "\n";
  ok = golden.matches("analyze_" + cls,
                      core::describe(p.analysis, false) +
                          core::describeTiers(p.analysis)) &&
       ok;
  return golden.matches("adjoint_" + cls, ir::printKernel(*p.adjoint)) && ok;
}

void prepare(Prepared& p, const FigureKernel& fig, std::uint64_t seed,
             Tracer& tracer) {
  p.fig = &fig;
  differentiate(p, tracer);
  p.vmInputs = bindAll(p, fig.size.vm, seed);
  p.nativeInputs = bindAll(p, fig.size.native, seed);
  p.vmWork = p.vmInputs;
  p.nativeWork = p.nativeInputs;

  // The VM compiles its bytecode on the first run: compile time is the
  // construction plus the first run minus a second, warm run.
  {
    Tracer::Scope s(tracer, "exec.vm_compile", -1);
    const auto t0 = Clock::now();
    p.vm = std::make_unique<exec::Executor>(*p.adjoint);
    exec::Inputs io = p.vmInputs;
    p.vm->run(io, vmOptions(kThreads));
    const auto t1 = Clock::now();
    io = p.vmInputs;
    p.vm->run(io, vmOptions(kThreads));
    p.vmCompileMs = std::max(0.0, 2 * msBetween(t0, t1) -
                                      msBetween(t0, Clock::now()));
    p.vmReference = gradientChecksum(p, io);
  }
  {
    Tracer::Scope s(tracer, "codegen.emit", -1);
    const auto t0 = Clock::now();
    p.sourceBytes = codegen::emitC(*p.adjoint).size();
    p.emitMs = msBetween(t0, Clock::now());
  }
  {
    Tracer::Scope s(tracer, "codegen.cc", -1);
    const auto t0 = Clock::now();
    p.native = std::make_unique<codegen::NativeKernel>(*p.adjoint);
    p.ccMs = msBetween(t0, Clock::now());
  }
  exec::Inputs io = p.nativeInputs;
  p.native->run(io);
  p.nativeReference = gradientChecksum(p, io);
}

/// Dot-product test against central finite differences of the primal, and
/// native against VM, both at the VM size. Returns false on a mismatch.
bool checkGradients(const Prepared& p, std::uint64_t seed) {
  const auto& spec = p.fig->kernel.spec;
  exec::Inputs adj = bindAll(p, p.fig->size.vm, seed);
  exec::Executor(*p.adjoint).run(adj, vmOptions(1));
  exec::Inputs nat = bindAll(p, p.fig->size.vm, seed);
  p.native->run(nat);

  bool ok = true;
  for (const auto& v : spec.independents) {
    const auto& a = adj.array(p.adjointParams.at(v)).realData();
    const auto& b = nat.array(p.adjointParams.at(v)).realData();
    for (size_t i = 0; i < a.size(); ++i)
      if (std::abs(a[i] - b[i]) > 1e-12 * std::max(1.0, std::abs(a[i]))) {
        std::cerr << p.fig->kernel.cls << ": native differs from VM at "
                  << v << "[" << i << "]\n";
        ok = false;
        break;
      }
  }

  // J(x) = sum over dependents of <ybar, y(x)>; d a seeded direction.
  const exec::Inputs base = bindAll(p, p.fig->size.vm, seed);
  kernels::Rng rng(seed ^ 0xd1ec7ULL);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::map<std::string, std::vector<double>> dir;
  double adDot = 0;
  for (const auto& v : spec.independents) {
    auto& d = dir[v];
    const auto& g = adj.array(p.adjointParams.at(v)).realData();
    for (size_t i = 0; i < g.size(); ++i) {
      d.push_back(u(rng));
      adDot += g[i] * d.back();
    }
  }
  exec::Executor primal(*p.primal);
  auto objective = [&](double h) {
    exec::Inputs io = base;
    for (const auto& [v, d] : dir) {
      auto& x = io.array(v).realData();
      for (size_t i = 0; i < x.size(); ++i) x[i] += h * d[i];
    }
    primal.run(io, vmOptions(1));
    double j = 0;
    for (const auto& v : spec.dependents) {
      const auto& y = io.array(v).realData();
      const auto& ybar = base.array(p.adjointParams.at(v)).realData();
      for (size_t i = 0; i < y.size(); ++i) j += ybar[i] * y[i];
    }
    return j;
  };
  const double h = 1e-5;
  const double fdDot = (objective(h) - objective(-h)) / (2 * h);
  if (std::abs(fdDot - adDot) >
      1e-6 * std::max({1.0, std::abs(adDot), std::abs(fdDot)})) {
    std::cerr << p.fig->kernel.cls << ": adjoint dot product " << adDot
              << " vs finite differences " << fdDot << "\n";
    ok = false;
  }
  return ok;
}

}  // namespace

void runAdjoint(const Args& args, Tracer& tracer, Outcome& out) {
  omp_set_num_threads(kThreads);
  const Golden golden(args.goldenDir, args.recordGolden);
  const std::vector<FigureKernel> figs = figureKernels();
  const int nf = static_cast<int>(figs.size());
  std::mt19937_64 rng(args.seed);
  const int rounds = opsPerClass(kRate, args);

  // Classes: 2f is figure f on the VM, 2f+1 natively compiled.
  std::vector<std::unique_ptr<Prepared>> prepared;
  std::vector<int> order;
  std::vector<double> setupSeconds;
  const int reps = args.trace ? 1 : kSetupReps;
  Tracer off(false);
  for (int rep = 0; rep < reps; ++rep) {
    prepared.clear();
    const auto t0 = Clock::now();
    order = shuffledRounds(2 * nf, rounds, rng);
    for (const FigureKernel& f : figs) {
      prepared.push_back(std::make_unique<Prepared>());
      prepare(*prepared.back(), f, args.seed + prepared.size(),
              rep + 1 == reps ? tracer : off);
    }
    setupSeconds.push_back(msBetween(t0, Clock::now()) / 1000.0);
  }

  auto className = [&](int c) {
    return std::string(c % 2 == 0 ? "vm." : "native.") +
           figs[static_cast<size_t>(c / 2)].kernel.cls;
  };
  // Ops [begin, end) of the timed window.
  auto window = [&](bool traced, size_t begin, size_t end, LatencyBook& book) {
    Window w;
    Tracer& t = traced ? tracer : off;
    const double cpu0 = processCpuMs();
    const auto t0 = Clock::now();
    for (size_t i = begin; i < end; ++i) {
      Prepared& p = *prepared[static_cast<size_t>(order[i] / 2)];
      const bool vm = order[i] % 2 == 0;
      const long long id = static_cast<long long>(i);
      Tracer::Scope op(t, "op", id);
      exec::Inputs& io = vm ? p.vmWork : p.nativeWork;
      {
        Tracer::Scope s(t, "bench.rebind", id);
        restore(io, vm ? p.vmInputs : p.nativeInputs, *p.adjoint);
      }
      ++out.attempted;
      ++w.ops;
      const auto s0 = Clock::now();
      if (vm) {
        Tracer::Scope s(t, "exec.vm_run", id);
        p.vm->run(io, vmOptions(kThreads));
      } else {
        Tracer::Scope s(t, "codegen.native_run", id);
        p.native->run(io);
      }
      book.add(className(order[i]), msBetween(s0, Clock::now()));
      // Every class is proven safe (no atomics), so each op's gradient is
      // bitwise the set-up run's.
      if (gradientChecksum(p, io) != (vm ? p.vmReference : p.nativeReference)) {
        std::cerr << className(order[i]) << ": gradient differs from set-up\n";
        ++out.failed;
      }
    }
    w.wallMs = msBetween(t0, Clock::now());
    w.cpuMs = processCpuMs() - cpu0;
    return w;
  };
  // The whole window, block by block.
  auto blocked = [&](bool traced) {
    std::vector<Block> blocks;
    const std::vector<int> bounds = blockBounds(rounds);
    for (size_t b = 0; b + 1 < bounds.size(); ++b) {
      Block& blk = blocks.emplace_back();
      blk.w = window(traced, static_cast<size_t>(bounds[b] * 2 * nf),
                     static_cast<size_t>(bounds[b + 1] * 2 * nf), blk.book);
    }
    return blocks;
  };

  const std::vector<Block> blocks = blocked(false);
  for (const auto& p : prepared) {
    out.attempted += 2;
    if (!checkDifferentiate(golden, *p)) ++out.failed;
    if (!checkGradients(*p, args.seed)) ++out.failed;
  }
  if (!args.trace) {
    addEndToEnd(out, setupSeconds, blocks);
    return;
  }

  const std::vector<Block> tracedBlocks = blocked(true);
  const LatencyBook tracedBook = mergedBook(tracedBlocks);
  // Means over the four kernels; parser, formad and ad from the traced
  // set-up (once per kernel).
  Layers l;
  const auto total = tracer.totalMsByName();
  auto totalOf = [&](const char* name) {
    const auto it = total.find(name);
    return it == total.end() ? 0.0 : it->second;
  };
  l.parseMs = totalOf("parser.parse") / nf;
  l.analyzeMs = totalOf("formad.analyze") / nf;
  l.reverseMs = totalOf("ad.reverse") / nf;
  // Model build is the analyze span minus the regions' own time.
  l.modelBuildMs = l.analyzeMs;
  const auto& lat = tracedBook.classes();
  for (const auto& p : prepared) {
    const core::KernelAnalysis& a = p->analysis;
    for (const auto& r : a.regions) {
      double tasks = 0;
      for (double t : r.taskSeconds) tasks += t;
      l.planMs += r.planSeconds * 1000 / nf;
      l.evaluateMs += tasks * 1000 / nf;
      l.replayMs +=
          std::max(0.0, r.analysisSeconds - r.planSeconds - tasks) * 1000 / nf;
    }
    l.modelBuildMs -= a.analysisSeconds() * 1000 / nf;
    l.modelAssertions += static_cast<double>(a.modelAssertions()) / nf;
    l.uniqueExprs += static_cast<double>(a.uniqueExprs()) / nf;
    l.queries += static_cast<double>(a.queries()) / nf;
    l.tier0 += static_cast<double>(a.tier0Hits()) / nf;
    l.tier1 += static_cast<double>(a.tier1Hits()) / nf;
    l.tier2 += static_cast<double>(a.tier2Checks()) / nf;
    l.cacheHits += static_cast<double>(a.cacheHits()) / nf;
    l.adjointStmts +=
        static_cast<double>(statementCount(ir::printKernel(*p->adjoint))) / nf;
    l.vmCompileMs += p->vmCompileMs / nf;
    l.emitMs += p->emitMs / nf;
    l.ccMs += p->ccMs / nf;
    l.sourceBytes += static_cast<double>(p->sourceBytes) / nf;
    const std::string cls = p->fig->kernel.cls;
    const auto& vmLat = lat.at("vm." + cls);
    const auto& nLat = lat.at("native." + cls);
    double vmMs = 0, nMs = 0;
    for (double x : vmLat) vmMs += x / static_cast<double>(vmLat.size());
    for (double x : nLat) nMs += x / static_cast<double>(nLat.size());
    l.vmRunMs += vmMs / nf;
    l.nativeRunMs += nMs / nf;
    l.vmNsPerPoint += vmMs * 1e6 / static_cast<double>(p->fig->size.vm) / nf;
    l.nativeNsPerPoint +=
        nMs * 1e6 / static_cast<double>(p->fig->size.native) / nf;
    // Tape high-water mark and operation mix at the VM size.
    exec::Inputs io = p->vmInputs;
    l.tapePeakBytes +=
        static_cast<double>(p->vm->run(io, vmOptions(kThreads)).tapePeakBytes) /
        nf;
    io = p->vmInputs;
    exec::ExecOptions prof;
    prof.mode = exec::ExecMode::Profile;
    const exec::OpCounts c = p->vm->run(io, prof).profile.total();
    l.opsPerPoint +=
        (c.flops + c.intops) / static_cast<double>(p->fig->size.vm) / nf;
  }
  l.overheadPct =
      (blockedBalanced(tracedBlocks, 50) / blockedBalanced(blocks, 50) - 1) *
      100;
  addLayerMetrics(out, l, tracer, static_cast<long long>(order.size()));
}

}  // namespace perfbench
