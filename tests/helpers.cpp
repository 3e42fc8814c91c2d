#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>

#include "kernels/data.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/indirect.h"
#include "kernels/lbm.h"
#include "kernels/stencil.h"

namespace formad::testing {

using exec::ArrayValue;
using exec::ExecOptions;
using exec::Executor;
using exec::Inputs;

namespace {

bool contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

/// Random values in [-1, 1] from a dedicated stream.
std::vector<double> randomVector(size_t n, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> out(n);
  for (auto& v : out) v = dist(rng);
  return out;
}

/// Dims of the array bound to `name`.
std::vector<long long> dimsOf(const Inputs& io, const std::string& name) {
  const ArrayValue& a = io.array(name);
  std::vector<long long> dims;
  for (int k = 0; k < a.rank(); ++k) dims.push_back(a.dim(k));
  return dims;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace

std::map<std::string, std::vector<double>> runPrimal(const Harness& h) {
  auto kernel = h.parse();
  Executor ex(*kernel);
  Inputs io;
  h.bind(io);
  (void)ex.run(io);
  std::map<std::string, std::vector<double>> out;
  for (const auto& dep : h.spec.dependents) out[dep] = io.array(dep).realData();
  return out;
}

double relDiff(double a, double b) {
  return std::fabs(a - b) / std::max({1.0, std::fabs(a), std::fabs(b)});
}

double dotProductError(const Harness& h, driver::AdjointMode mode,
                       const ExecOptions& execOpts, unsigned seed) {
  auto primal = h.parse();

  ad::TangentOptions topts;
  topts.independents = h.spec.independents;
  topts.dependents = h.spec.dependents;
  ad::TangentResult tr = ad::buildTangent(*primal, topts);

  auto dr =
      driver::differentiate(*primal, h.spec.independents, h.spec.dependents, mode);

  // --- tangent run ---
  Inputs tio;
  h.bind(tio);
  std::map<std::string, std::vector<double>> xdSeeds;
  unsigned stream = seed * 7919 + 13;
  for (const auto& [p, pd] : tr.tangentParams) {
    auto dims = dimsOf(tio, p);
    ArrayValue& a = tio.bindArray(pd, ArrayValue::reals(dims));
    if (contains(h.spec.independents, p)) {
      a.realData() = randomVector(a.realData().size(), stream++);
      xdSeeds[p] = a.realData();
    }
  }
  Executor tex(*tr.tangent);
  (void)tex.run(tio);

  // --- adjoint run ---
  Inputs aio;
  h.bind(aio);
  std::map<std::string, std::vector<double>> ybSeeds;
  unsigned stream2 = seed * 104729 + 57;
  for (const auto& [p, pb] : dr.adjointParams) {
    auto dims = dimsOf(aio, p);
    ArrayValue& a = aio.bindArray(pb, ArrayValue::reals(dims));
    if (contains(h.spec.dependents, p)) {
      a.realData() = randomVector(a.realData().size(), stream2++);
      ybSeeds[p] = a.realData();
    }
  }
  Executor aex(*dr.adjoint);
  exec::ExecStats st = aex.run(aio, execOpts);
  EXPECT_TRUE(st.tapeDrained) << "tape not drained after adjoint run";

  // <yb_seed, yd_final> vs <xb_final, xd_seed>. Declared dependents /
  // independents that turned out inactive have no derivative counterpart
  // and contribute zero to both sides.
  double lhs = 0.0;
  for (const auto& dep : h.spec.dependents) {
    auto it = tr.tangentParams.find(dep);
    if (it == tr.tangentParams.end()) continue;
    lhs += dot(ybSeeds.at(dep), tio.array(it->second).realData());
  }
  double rhs = 0.0;
  for (const auto& ind : h.spec.independents) {
    auto it = dr.adjointParams.find(ind);
    if (it == dr.adjointParams.end()) continue;
    rhs += dot(aio.array(it->second).realData(), xdSeeds.at(ind));
  }
  return relDiff(lhs, rhs);
}

double finiteDifferenceError(const Harness& h, driver::AdjointMode mode,
                             int probes, unsigned seed) {
  auto primal = h.parse();
  auto dr =
      driver::differentiate(*primal, h.spec.independents, h.spec.dependents, mode);

  // Objective: sum over dependents of all final entries.
  auto objective = [&](const std::string& perturbName, long long entry,
                       double delta) {
    Inputs io;
    h.bind(io);
    if (!perturbName.empty())
      io.array(perturbName).realData()[static_cast<size_t>(entry)] += delta;
    Executor ex(*primal);
    (void)ex.run(io);
    double obj = 0.0;
    for (const auto& dep : h.spec.dependents)
      for (double v : io.array(dep).realData()) obj += v;
    return obj;
  };

  // Adjoint gradient with yb = 1.
  Inputs aio;
  h.bind(aio);
  for (const auto& [p, pb] : dr.adjointParams) {
    auto dims = dimsOf(aio, p);
    ArrayValue& a = aio.bindArray(pb, ArrayValue::reals(dims));
    if (contains(h.spec.dependents, p)) a.fill(1.0);
  }
  Executor aex(*dr.adjoint);
  (void)aex.run(aio);

  std::mt19937_64 rng(seed * 31 + 7);
  double maxErr = 0.0;
  for (int probe = 0; probe < probes; ++probe) {
    const std::string& ind =
        h.spec.independents[static_cast<size_t>(probe) %
                            h.spec.independents.size()];
    Inputs probeIo;
    h.bind(probeIo);
    size_t n = probeIo.array(ind).realData().size();
    std::uniform_int_distribution<long long> pick(0, static_cast<long long>(n) - 1);
    long long entry = pick(rng);

    double x0 = probeIo.array(ind).realData()[static_cast<size_t>(entry)];
    double step = 1e-6 * std::max(1.0, std::fabs(x0));
    double fd = (objective(ind, entry, step) - objective(ind, entry, -step)) /
                (2.0 * step);
    auto pbIt = dr.adjointParams.find(ind);
    double adj = pbIt == dr.adjointParams.end()
                     ? 0.0  // independent proved inactive: gradient is zero
                     : aio.array(pbIt->second)
                           .realData()[static_cast<size_t>(entry)];
    // FD is itself O(step^2) accurate; compare loosely.
    double err = std::fabs(fd - adj) / std::max({1.0, std::fabs(fd), std::fabs(adj)});
    maxErr = std::max(maxErr, err);
  }
  return maxErr;
}

std::map<std::string, std::vector<double>> adjointGradients(
    const Harness& h, driver::AdjointMode mode, const ExecOptions& execOpts,
    unsigned seed) {
  driver::DriverOptions dopts;
  dopts.mode = mode;
  return adjointGradients(h, dopts, execOpts, seed);
}

std::map<std::string, std::vector<double>> adjointGradients(
    const Harness& h, const driver::DriverOptions& dopts,
    const ExecOptions& execOpts, unsigned seed) {
  auto primal = h.parse();
  auto dr = driver::differentiate(*primal, h.spec.independents,
                                  h.spec.dependents, dopts);
  // A scalar primal (e.g. the shared sum `s`) gets a scalar adjoint.
  auto scalarParam = [&](const std::string& name) {
    for (const auto& p : primal->params)
      if (p.name == name) return !p.type.isArray();
    return false;
  };
  Inputs aio;
  h.bind(aio);
  unsigned stream = seed * 104729 + 57;
  for (const auto& [p, pb] : dr.adjointParams) {
    if (scalarParam(p)) {
      aio.bindReal(pb, contains(h.spec.dependents, p)
                           ? randomVector(1, stream++)[0]
                           : 0.0);
      continue;
    }
    auto dims = dimsOf(aio, p);
    ArrayValue& a = aio.bindArray(pb, ArrayValue::reals(dims));
    if (contains(h.spec.dependents, p))
      a.realData() = randomVector(a.realData().size(), stream++);
  }
  Executor aex(*dr.adjoint);
  exec::ExecStats st = aex.run(aio, execOpts);
  EXPECT_TRUE(st.tapeDrained);
  std::map<std::string, std::vector<double>> out;
  for (const auto& [p, pb] : dr.adjointParams)
    out[p] = scalarParam(p) ? std::vector<double>{aio.real(pb)}
                            : aio.array(pb).realData();
  return out;
}

Harness stencilHarness(int radius, long long n, unsigned seed) {
  Harness h;
  h.spec = kernels::stencilSpec(radius);
  h.bind = [radius, n, seed](Inputs& io) {
    kernels::Rng rng(seed);
    kernels::bindStencil(io, radius, n, rng);
  };
  return h;
}

Harness gfmcHarness(bool fused, unsigned seed) {
  Harness h;
  h.spec = fused ? kernels::gfmcFusedSpec() : kernels::gfmcSplitSpec();
  h.bind = [seed](Inputs& io) {
    kernels::GfmcConfig cfg;
    cfg.ns = 24;
    cfg.nw = 64;
    cfg.npair = 12;
    cfg.nk = 4;
    kernels::Rng rng(seed);
    kernels::bindGfmc(io, cfg, rng);
  };
  return h;
}

Harness greenGaussHarness(long long nodes, unsigned seed) {
  Harness h;
  h.spec = kernels::greenGaussSpec();
  h.bind = [nodes, seed](Inputs& io) {
    kernels::GreenGaussConfig cfg;
    cfg.nodes = nodes;
    kernels::Rng rng(seed);
    kernels::bindGreenGauss(io, cfg, rng);
  };
  return h;
}

Harness indirectHarness(long long n, unsigned seed) {
  Harness h;
  h.spec = kernels::indirectSpec();
  h.bind = [n, seed](Inputs& io) {
    kernels::Rng rng(seed);
    kernels::bindIndirect(io, n, rng);
  };
  return h;
}

Harness lbmHarness(unsigned seed) {
  Harness h;
  kernels::LbmLayout layout;
  layout.nz = 3;
  h.spec = kernels::lbmSpec(layout);
  h.bind = [layout, seed](Inputs& io) {
    kernels::Rng rng(seed);
    kernels::bindLbm(io, layout, rng);
  };
  return h;
}

namespace {

/// Generates a random kernel over fixed parameters:
///   n: int, u: real[] inout, v: real[] inout, w: real[,] inout,
///   r: real[] in (read-only), c: int[] in (a permutation of 0..N-1).
/// Parallel iterations only touch row/column i (plus read-only data), so
/// every generated kernel is correctly parallelized by construction.
class KernelGen {
 public:
  explicit KernelGen(unsigned seed) : rng_(seed) {}

  std::string generate() {
    body_.str("");
    locals_ = 0;
    emitParallelLoop();
    std::ostringstream k;
    k << "kernel randk(n: int in, u: real[] inout, v: real[] inout, "
         "w: real[,] inout, r: real[] in, c: int[] in) {\n"
      << body_.str() << "}\n";
    return k.str();
  }

 private:
  std::mt19937_64 rng_;
  std::ostringstream body_;
  int locals_ = 0;

  int pick(int n) {
    return static_cast<int>(std::uniform_int_distribution<int>(0, n - 1)(rng_));
  }
  double coef() {
    return std::uniform_real_distribution<double>(0.25, 1.75)(rng_);
  }

  /// A random real-valued expression over row i / inner counter k.
  std::string expr(const std::string& i, int depth) {
    switch (depth > 0 ? pick(7) : pick(4)) {
      case 0: return "u[" + i + "]";
      case 1: return "r[" + i + "]";
      case 2: return "v[c[" + i + "]]";
      case 3: {
        std::ostringstream os;
        os << coef();
        std::string s = os.str();
        return s.find('.') == std::string::npos ? s + ".0" : s;
      }
      case 4:
        return "(" + expr(i, depth - 1) + " + " + expr(i, depth - 1) + ")";
      case 5:
        return "(" + expr(i, depth - 1) + " * " + expr(i, depth - 1) + ")";
      default:
        switch (pick(3)) {
          case 0: return "sin(" + expr(i, depth - 1) + ")";
          case 1: return "tanh(" + expr(i, depth - 1) + ")";
          default: return "exp(0.1 * " + expr(i, depth - 1) + ")";
        }
    }
  }

  void emitStmt(const std::string& i, int indent) {
    std::string pad(static_cast<size_t>(indent) * 2, ' ');
    switch (pick(6)) {
      case 0:  // increment of u at own row
        body_ << pad << "u[" << i << "] += " << expr(i, 1) << ";\n";
        break;
      case 1:  // overwrite of v at the permuted index (own element)
        body_ << pad << "v[c[" << i << "]] = " << expr(i, 1) << ";\n";
        break;
      case 2: {  // 2-D access in own column
        body_ << pad << "w[" << pick(3) << ", " << i
              << "] = " << expr(i, 1) << ";\n";
        break;
      }
      case 3: {  // scalar local chain
        std::string t = "t" + std::to_string(locals_++);
        body_ << pad << "var " << t << ": real = " << expr(i, 2) << ";\n";
        body_ << pad << "u[" << i << "] += " << t << " * "
              << expr(i, 0) << ";\n";
        break;
      }
      case 4:  // branch on read-only data
        body_ << pad << "if (c[" << i << "] % 2 == 0) {\n";
        emitStmt(i, indent + 1);
        body_ << pad << "} else {\n";
        emitStmt(i, indent + 1);
        body_ << pad << "}\n";
        break;
      default:  // self-scaling overwrite (tests the tmpb pattern)
        body_ << pad << "u[" << i << "] = 0.5 * u[" << i << "] + "
              << expr(i, 1) << ";\n";
        break;
    }
  }

  void emitParallelLoop() {
    body_ << "  parallel for i = 0 : n - 1 {\n";
    int stmts = 2 + pick(3);
    for (int s = 0; s < stmts; ++s) emitStmt("i", 2);
    if (pick(2) == 0) {
      // nested serial loop over a few repetitions
      body_ << "    for k = 0 : 2 {\n";
      emitStmt("i", 3);
      body_ << "    }\n";
    }
    body_ << "  }\n";
  }
};

}  // namespace

std::string randomKernelSource(unsigned seed) {
  return KernelGen(seed).generate();
}

Harness randomHarness(unsigned seed) {
  Harness h;
  h.spec.name = "randk";
  h.spec.source = randomKernelSource(seed);
  h.spec.independents = {"u", "v"};
  h.spec.dependents = {"u", "v", "w"};
  const long long n = 64;
  h.bind = [n, seed](Inputs& io) {
    kernels::Rng rng(seed * 17 + 5);
    io.bindInt("n", n);
    auto& u = io.bindArray("u", ArrayValue::reals({n}));
    kernels::fillUniform(u, rng, 0.2, 0.8);
    auto& v = io.bindArray("v", ArrayValue::reals({n}));
    kernels::fillUniform(v, rng, 0.2, 0.8);
    auto& w = io.bindArray("w", ArrayValue::reals({3, n}));
    kernels::fillUniform(w, rng, 0.2, 0.8);
    auto& r = io.bindArray("r", ArrayValue::reals({n}));
    kernels::fillUniform(r, rng, 0.2, 0.8);
    auto& c = io.bindArray("c", ArrayValue::ints({n}));
    std::vector<long long> perm(static_cast<size_t>(n));
    for (long long i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
    std::shuffle(perm.begin(), perm.end(), rng);
    c.intData() = perm;
  };
  return h;
}

std::string mutateIndexSite(const std::string& source, unsigned seed) {
  std::vector<size_t> sites;
  for (size_t at = source.find("[i]"); at != std::string::npos;
       at = source.find("[i]", at + 1))
    sites.push_back(at);
  if (sites.empty()) return source;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 7);
  const size_t at = sites[rng() % sites.size()];
  const int d = 1 + static_cast<int>(rng() % 3);
  const char sign = (rng() & 1) != 0 ? '+' : '-';
  std::string out = source;
  out.replace(at, 3,
              std::string("[i ") + sign + ' ' + std::to_string(d) + ']');
  return out;
}

std::vector<smt::Constraint> randomConjunction(smt::AtomTable& atoms,
                                               unsigned seed) {
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(
                    rng() % static_cast<unsigned long long>(hi - lo + 1));
  };
  using smt::Constraint;
  using smt::LinExpr;
  using smt::Rational;

  // The atom universe of a typical query: the counter pair, the iteration
  // lattice coordinates, a parameter, and two UF reads over the counters
  // (the shape knowledge assertions have).
  std::vector<smt::AtomId> pool = {
      atoms.internVar("i", 0, false), atoms.internVar("i", 0, true),
      atoms.internVar("q", 0, false), atoms.internVar("q", 0, true),
      atoms.internVar("n", 0, false),
  };
  pool.push_back(atoms.internUF("c@0", {LinExpr::atom(pool[0])}));
  pool.push_back(atoms.internUF("c@0", {LinExpr::atom(pool[1])}));

  auto randomExpr = [&]() {
    LinExpr e(Rational(pick(-6, 6)));
    const int terms = pick(0, 3);
    for (int t = 0; t < terms; ++t) {
      int c = pick(-3, 3);
      if (c == 0) c = 1;
      e.addTerm(pool[static_cast<size_t>(pick(0, static_cast<int>(pool.size()) - 1))],
                Rational(c));
    }
    return e;
  };

  std::vector<Constraint> out;
  const int n = pick(1, 6);
  for (int k = 0; k < n; ++k) {
    LinExpr e = randomExpr();
    switch (pick(0, 2)) {
      case 0: out.push_back(Constraint{std::move(e), smt::Rel::Eq}); break;
      case 1: out.push_back(Constraint{std::move(e), smt::Rel::Ne}); break;
      default: out.push_back(Constraint{std::move(e), smt::Rel::Le}); break;
    }
  }
  return out;
}

smt::ContentKey contentKeyOf(smt::ConstraintInterner& interner,
                             smt::KeyKind kind,
                             const std::vector<std::string>& conjunction,
                             const std::vector<std::string>& probes) {
  std::vector<const smt::InternedConstraint*> conj, seq;
  for (const auto& k : conjunction) conj.push_back(interner.intern(k));
  for (const auto& k : probes) seq.push_back(interner.intern(k));
  return smt::ContentKey::make(kind, 0, std::move(conj), std::move(seq));
}

smt::ContentKey withDigest(smt::ContentKey key,
                           const smt::ContentDigest& digest) {
  key.digest = digest;
  return key;
}

}  // namespace formad::testing
