#include "formad/knowledge.h"

#include <algorithm>

#include "analysis/accesses.h"
#include "analysis/increment.h"
#include "cfg/cfg.h"
#include "ir/traversal.h"
#include "smt/fingerprint.h"

namespace formad::core {

using namespace ::formad::ir;
using analysis::ArrayAccess;
using smt::AtomId;
using smt::Constraint;
using smt::LinExpr;

std::set<std::string> privateNames(const For& loop) {
  std::set<std::string> names;
  names.insert(loop.var);
  for (const auto& p : loop.privates) names.insert(p);
  forEachStmt(loop.body, [&](const Stmt& s) {
    if (s.kind() == StmtKind::DeclLocal)
      names.insert(s.as<DeclLocal>().name);
    else if (s.kind() == StmtKind::For)
      names.insert(s.as<For>().var);  // inner serial counters are per-thread
    else if (s.kind() == StmtKind::Pop)
      names.insert(s.as<Pop>().target);
  });
  return names;
}

LinExpr IndexLowering::dimExtent(const std::string& array, int dim) {
  AtomId id = atoms_.internVar("__dim_" + array + "_" + std::to_string(dim),
                               0, false);
  return LinExpr::atom(id);
}

LinExpr IndexLowering::opaque(const std::string& fn,
                              std::vector<LinExpr> args) {
  return LinExpr::atom(atoms_.internUF(fn, std::move(args)));
}

LinExpr IndexLowering::mulLin(const LinExpr& a, const LinExpr& b) {
  if (a.isConstant()) return b.scaled(a.constant());
  if (b.isConstant()) return a.scaled(b.constant());
  // Nonlinear: keep as an opaque commutative product so that identical
  // products intern to the same atom (congruence handles provably equal
  // arguments).
  if (a.key() <= b.key()) return opaque("__mul", {a, b});
  return opaque("__mul", {b, a});
}

LinExpr IndexLowering::lower(const Expr& e, bool primed) {
  switch (e.kind()) {
    case ExprKind::IntLit:
      return LinExpr(smt::Rational(e.as<IntLit>().value));
    case ExprKind::VarRef: {
      const auto& v = e.as<VarRef>();
      if (pinned_ != nullptr && privates_.count(v.name) == 0) {
        auto it = pinned_->find(v.name);
        if (it != pinned_->end())
          return LinExpr(smt::Rational(it->second));
      }
      bool p = primed && privates_.count(v.name) > 0;
      int instNo = inst_ == nullptr ? 0 : inst_->instanceOf(&e);
      return LinExpr::atom(atoms_.internVar(v.name, instNo, p));
    }
    case ExprKind::ArrayRef: {
      const auto& a = e.as<ArrayRef>();
      // A read of an integer array inside an index expression: an
      // uninterpreted function of its (lowered) indices. The function
      // symbol carries the array's instance number so reads before/after a
      // write to the array are distinguished.
      std::vector<LinExpr> args;
      args.reserve(a.indices.size());
      for (const auto& i : a.indices) args.push_back(lower(*i, primed));
      int instNo = inst_ == nullptr ? 0 : inst_->instanceOf(&e);
      std::string fn = a.name + "@" + std::to_string(instNo);
      return opaque(fn, std::move(args));
    }
    case ExprKind::Unary: {
      const auto& u = e.as<Unary>();
      FORMAD_ASSERT(u.op == UnOp::Neg, "boolean operator in index expression");
      return -lower(*u.operand, primed);
    }
    case ExprKind::Binary: {
      const auto& b = e.as<Binary>();
      LinExpr l = lower(*b.lhs, primed);
      LinExpr r = lower(*b.rhs, primed);
      switch (b.op) {
        case BinOp::Add: return l + r;
        case BinOp::Sub: return l - r;
        case BinOp::Mul: return mulLin(l, r);
        case BinOp::Div: return opaque("__div", {l, r});
        case BinOp::Mod: return opaque("__mod", {l, r});
        default:
          fail("unsupported operator in index expression");
      }
    }
    default:
      fail("unsupported expression in index lowering");
  }
}

LinExpr IndexLowering::refOffset(const ArrayRef& ref, bool primed) {
  // Row-major flattening with symbolic extents:
  //   a[i]        -> i
  //   a[i, j]     -> i + D0*j            (D0 = extent of dim 0)
  //   a[i, j, k]  -> i + D0*j + D0*D1*k
  LinExpr offset = lower(*ref.indices[0], primed);
  LinExpr stride(smt::Rational(1));
  for (size_t k = 1; k < ref.indices.size(); ++k) {
    stride = mulLin(stride, dimExtent(ref.name, static_cast<int>(k - 1)));
    offset = offset + mulLin(stride, lower(*ref.indices[k], primed));
  }
  return offset;
}

namespace {

/// An access with both lowered offset forms and its context.
struct LoweredAccess {
  const ArrayAccess* acc = nullptr;
  LinExpr offset;
  LinExpr offsetPrimed;
  std::vector<LinExpr> dims;
  std::vector<LinExpr> dimsPrimed;
  int context = 0;
};

/// True if the statement owning this read generates an adjoint increment:
/// it assigns to an active differentiable target.
bool statementIsActive(const Stmt& s, const analysis::Activity& act,
                       const analysis::SymbolTable& syms) {
  if (s.kind() == StmtKind::Assign) {
    const auto& a = s.as<Assign>();
    const analysis::Symbol* sym = syms.find(refName(*a.lhs));
    return sym != nullptr && sym->type.differentiable() &&
           act.isActive(refName(*a.lhs));
  }
  if (s.kind() == StmtKind::DeclLocal) {
    const auto& d = s.as<DeclLocal>();
    return d.type.differentiable() && act.isActive(d.name);
  }
  return false;
}

}  // namespace

RegionModel buildRegionModel(const Kernel& kernel, const For& loop,
                             const analysis::SymbolTable& syms,
                             const analysis::Activity& act,
                             const ModelOptions& opts) {
  RegionModel m;
  m.loop = &loop;
  m.atoms = std::make_shared<smt::AtomTable>();

  cfg::Cfg cfg = cfg::buildCfg(loop.body);
  m.contexts = cfg::buildContextTree(cfg);
  analysis::InstanceMap inst = analysis::computeInstances(loop);
  std::set<std::string> privates = privateNames(loop);
  IndexLowering low(*m.atoms, inst, privates, syms);

  m.counterAtom = m.atoms->internVar(loop.var, 0, false);
  m.counterPrimeAtom = m.atoms->internVar(loop.var, 0, true);

  int stmts = 0;
  forEachStmt(loop.body, [&](const Stmt&) { ++stmts; });
  m.statementsInRegion = stmts;

  std::vector<ArrayAccess> accesses = analysis::collectAccesses(loop);

  // Lower all accesses, grouped by array.
  std::map<std::string, std::vector<LoweredAccess>> byArray;
  for (const auto& a : accesses) {
    LoweredAccess la;
    la.acc = &a;
    try {
      la.offset = low.refOffset(*a.ref, /*primed=*/false);
      la.offsetPrimed = low.refOffset(*a.ref, /*primed=*/true);
      for (const auto& i : a.ref->indices) {
        la.dims.push_back(low.lower(*i, /*primed=*/false));
        la.dimsPrimed.push_back(low.lower(*i, /*primed=*/true));
      }
    } catch (const smt::ArithmeticOverflow& err) {
      // An index no exact model can hold: a kernel error at the reference.
      throw smt::ArithmeticOverflow(err.what(), a.ref->loc());
    }
    la.context = m.contexts.contextOf(cfg, a.stmt);
    byArray[a.array].push_back(std::move(la));
  }

  // --- knowledge extraction ---
  std::set<std::string> knowledgeKeys;
  std::set<std::string> writeExprKeys;  // (array, offset) of knowledge writes
  for (const auto& [array, accs] : byArray) {
    for (const auto& w : accs) {
      if (!w.acc->isWrite || w.acc->isAtomic) continue;
      for (const auto& x : accs) {
        if (x.acc->isWrite && x.acc->isAtomic) continue;  // no knowledge
        // Attach to the context that must execute both references.
        int ctx;
        if (w.context == x.context)
          ctx = w.context;
        else if (m.contexts.includes(w.context, x.context))
          ctx = w.context;
        else if (m.contexts.includes(x.context, w.context))
          ctx = x.context;
        else
          continue;  // no control certainly executes both
        std::string key = w.offsetPrimed.key() + " # " + x.offset.key() +
                          " @ " + std::to_string(ctx);
        if (!knowledgeKeys.insert(key).second) continue;
        KnowledgeAssertion ka;
        ka.primed = w.offsetPrimed;
        ka.other = x.offset;
        ka.context = ctx;
        ka.array = array;
        m.knowledge.push_back(std::move(ka));
        writeExprKeys.insert(array + " : " + w.offset.key());
      }
    }
  }
  m.uniqueExprs = static_cast<int>(writeExprKeys.size());

  // --- question generation (adjoint access pattern per Sec. 5.4) ---
  for (const auto& [array, accs] : byArray) {
    const analysis::Symbol* sym = syms.find(array);
    if (sym == nullptr || !sym->type.differentiable()) continue;
    if (opts.activityPruning && !act.isActive(array)) continue;

    std::vector<const LoweredAccess*> adjWrites;
    std::vector<const LoweredAccess*> adjReads;
    for (const auto& la : accs) {
      if (la.acc->isWrite) {
        if (opts.incrementDetection && la.acc->isIncrementTarget) {
          // Primal `u += e`: the adjoint only reads ub (Fig. 1 right).
          adjReads.push_back(&la);
        } else {
          // Primal overwrite: the adjoint reads and zeroes ub.
          adjWrites.push_back(&la);
          adjReads.push_back(&la);
        }
      } else if ((!opts.incrementDetection || !la.acc->isIncrementSelfRead) &&
                 (!opts.activityPruning ||
                  statementIsActive(*la.acc->stmt, act, syms))) {
        // Primal read feeding an active target: adjoint increment (write).
        // The self-read of an exact increment is excluded: its partial is
        // exactly 1 and yields no adjoint reference (Sec. 5.4).
        adjWrites.push_back(&la);
      }
    }
    if (adjWrites.empty()) continue;  // nothing to prove

    VarQuestions vq;
    vq.var = array;
    std::map<std::string, size_t> pairIndexByKey;
    auto addPair = [&](const LoweredAccess& w, const LoweredAccess& x) {
      int ctx = m.contexts.commonRoot(w.context, x.context);
      std::string key = w.offsetPrimed.key() + " # " + x.offset.key() +
                        " @ " + std::to_string(ctx);
      // Site provenance accumulates across duplicates: several primal
      // references can share one offset key, and a verdict for the pair
      // must reach every one of them (hybrid safeguard).
      auto attachSites = [&](QuestionPair& qp) {
        for (const ir::Expr* site :
             {static_cast<const ir::Expr*>(w.acc->ref),
              static_cast<const ir::Expr*>(x.acc->ref)}) {
          if (std::find(qp.sites.begin(), qp.sites.end(), site) ==
              qp.sites.end())
            qp.sites.push_back(site);
        }
      };
      auto it = pairIndexByKey.find(key);
      if (it != pairIndexByKey.end()) {
        attachSites(vq.pairs[it->second]);
        return;
      }
      QuestionPair qp;
      qp.primedWrite = w.offsetPrimed;
      qp.other = x.offset;
      qp.primedDims = w.dimsPrimed;
      qp.otherDims = x.dims;
      qp.context = ctx;
      attachSites(qp);
      pairIndexByKey.emplace(std::move(key), vq.pairs.size());
      vq.pairs.push_back(std::move(qp));
    };
    for (const auto* w : adjWrites) {
      for (const auto* x : adjWrites) addPair(*w, *x);
      for (const auto* x : adjReads) addPair(*w, *x);
    }
    m.questions.push_back(std::move(vq));
  }

  // --- shared active scalars read in the region: their adjoints are
  // incremented at a single shared address by every iteration -> the
  // (trivially refutable) question 0' vs 0.
  std::set<std::string> scalarDone;
  forEachStmt(loop.body, [&](const Stmt& s) {
    if (!statementIsActive(s, act, syms)) return;
    forEachOwnExpr(s, [&](const Expr& top) {
      forEachExpr(top, [&](const Expr& x) {
        if (x.kind() != ExprKind::VarRef) return;
        const auto& v = x.as<VarRef>();
        const analysis::Symbol* sym = syms.find(v.name);
        if (sym == nullptr || sym->type.isArray() ||
            !sym->type.differentiable())
          return;
        if (!act.isActive(v.name)) return;
        if (privates.count(v.name) > 0) return;
        // Skip the assignment target itself (handled via array path when
        // relevant; a scalar overwrite is the tmpb/zero pattern).
        if (s.kind() == StmtKind::Assign && &x == s.as<Assign>().lhs.get())
          return;
        if (!scalarDone.insert(v.name).second) return;
        VarQuestions vq;
        vq.var = v.name;
        QuestionPair qp;
        qp.primedWrite = LinExpr(smt::Rational(0));
        qp.other = LinExpr(smt::Rational(0));
        qp.context = m.contexts.root();
        vq.pairs.push_back(std::move(qp));
        m.questions.push_back(std::move(vq));
      });
    });
  });

  // --- abstract-interpretation invariants (ModelOptions::absint) ---
  if (opts.absint) {
    absint::AbsintOptions ao;
    ao.paramValues = opts.paramValues;
    absint::KernelFacts facts = absint::analyzeKernel(kernel, ao);
    for (const auto& rf : facts.regions) {
      if (rf.loop != &loop) continue;
      m.hints = absint::toHints(rf);
      m.absintFacts = rf.factCount();
      // Stride equality for the parallel counter: for step s >= 2, both
      // i and i' lie on the lattice lo + s*Z. Encoded exactly as
      //   i  = lo + s*q    i' = lo + s*q'
      // with fresh existential atoms q/q' that appear nowhere else, so
      // the equalities can only ever REMOVE spurious models (any real
      // iteration extends to a model of the augmented system) and their
      // constraint keys can never collide with question probes. Step 1
      // carries no congruence information and injects nothing.
      if (loop.step->kind() == ExprKind::IntLit) {
        const long long step = loop.step->as<IntLit>().value;
        if (step >= 2) {
          // Bounds are evaluated once outside the region: null instance
          // map (= instance 0 everywhere), unprimed, no pinning — the
          // injected fact must hold for every run, not just pinned ones.
          IndexLowering boundLow(*m.atoms, nullptr, privates, syms, nullptr);
          try {
            LinExpr lo = boundLow.lower(*loop.lo, /*primed=*/false);
            LinExpr q = LinExpr::atom(
                m.atoms->internVar("__ai_q_" + loop.var, 0, false));
            LinExpr qp = LinExpr::atom(
                m.atoms->internVar("__ai_q_" + loop.var, 0, true));
            m.invariants.push_back(Constraint::eq(
                LinExpr::atom(m.counterAtom),
                lo + q.scaled(smt::Rational(step))));
            m.invariants.push_back(Constraint::eq(
                LinExpr::atom(m.counterPrimeAtom),
                lo + qp.scaled(smt::Rational(step))));
          } catch (const Error&) {
            // Unlowerable bound: skip the invariant, keep the hints.
          }
        }
      }
      break;
    }
  }

  return m;
}

std::map<int, std::string> contextFingerprints(const RegionModel& model) {
  smt::Fingerprinter fp(*model.atoms);
  // Sum the per-constraint digests by context, then digest each
  // conjunction as a solver check would key it. The sum makes the digest
  // independent of knowledge insertion order.
  std::map<int, std::pair<smt::ContentDigest, size_t>> sums;
  for (const auto& k : model.knowledge) {
    auto& [sum, depth] = sums[k.context];
    sum += smt::constraintDigest(
        fp.constraintKey(smt::Constraint::ne(k.primed, k.other)));
    ++depth;
  }
  std::map<int, std::string> out;
  for (const auto& [ctx, s] : sums)
    out[ctx] =
        smt::keyDigest(smt::KeyKind::Check, 0, s.first, s.second, {}).hex();
  return out;
}

}  // namespace formad::core
