#include "exec/bytecode.h"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <sstream>

#include "ir/kernel.h"

namespace formad::exec {

using namespace formad::ir;

namespace {

// ------------------------------------------------------------ instruction set
//
// Register machine with three typed banks per frame: R (double), I (long
// long), B (uint8_t). Scalar slots get fixed registers at the bottom of the
// bank of their declared type (identical layout in every program region, so
// a shared-bank index in a loop program equals the main frame's register of
// the same slot); expression temporaries live above the variable watermark.
//
// Operand conventions are documented per opcode below: `a..e` are register
// indices, descriptor slots, shadow indices or jump targets; `imm`/`iimm`
// carry literals. The float fields carry the Profile-mode operation counts
// attached to the instruction (its own cost plus any constant-folded
// operations re-attached by the compiler).

#define FORMAD_VM_OPS(X)                                                      \
  X(Halt)        /* end of program */                                         \
  X(CountNop)    /* no-op carrying folded profile counts */                   \
  X(ConstR)      /* R[a] = imm */                                             \
  X(ConstI)      /* I[a] = iimm */                                            \
  X(ConstB)      /* B[a] = iimm */                                            \
  X(MovR)        /* R[a] = R[b] */                                            \
  X(MovI)        /* I[a] = I[b] */                                            \
  X(MovB)        /* B[a] = B[b] */                                            \
  X(IntToReal)   /* R[a] = (double)I[b] */                                    \
  X(AddR) X(SubR) X(MulR) X(DivR) /* R[a] = R[b] op R[c] */                   \
  X(NegR)        /* R[a] = -R[b] */                                           \
  X(AddI) X(SubI) X(MulI) X(DivI) X(ModI) /* I[a] = I[b] op I[c] */           \
  X(NegI)        /* I[a] = -I[b] */                                           \
  X(AddImmI)     /* I[a] += iimm (loop bookkeeping, never counted) */         \
  X(LtR) X(LeR) X(GtR) X(GeR) X(EqR) X(NeR) /* B[a] = R[b] op R[c] */         \
  X(LtI) X(LeI) X(GtI) X(GeI) X(EqI) X(NeI) /* B[a] = I[b] op I[c] */         \
  X(NotB)        /* B[a] = !B[b] */                                           \
  X(SinR) X(CosR) X(TanR) X(ExpR) X(LogR) X(SqrtR) X(AbsR) X(TanhR)           \
  X(MinR) X(MaxR) X(PowR) /* R[a] = fn(R[b] [, R[c]]) */                      \
  X(Jmp)         /* pc = d */                                                 \
  X(BrFalse)     /* if (!B[a]) pc = d */                                      \
  X(BrTrue)      /* if (B[a]) pc = d */                                       \
  X(BrGeI)       /* if (I[a] >= I[b]) pc = d */                               \
  X(BrLtZ)       /* if (I[a] < 0) pc = d */                                   \
  X(LoopRange)   /* I[a] = trip count of lo=I[b],hi=I[c],step=I[d]; locs[e] */\
  X(LoopIdx)     /* I[a] = I[b] + I[c]*I[d] (counter = lo + k*step) */        \
  X(GetShR)      /* R[a] = sh.R[b] */                                         \
  X(GetShI)      /* I[a] = sh.I[b] */                                         \
  X(GetShB)      /* B[a] = sh.B[b] */                                         \
  X(GetShRedR)   /* R[a] = sh.R[b] + shadowScl[c] (reduction read-through) */ \
  X(GetFrRedR)   /* R[a] = R[b] + shadowScl[c] */                             \
  X(SetShR)      /* sh.R[a] = R[b] */                                         \
  X(SetShI)      /* sh.I[a] = I[b] */                                         \
  X(SetShB)      /* sh.B[a] = B[b] */                                         \
  X(SetShRedR)   /* sh.R[a] = R[b]; shadowScl[c] = 0 */                       \
  X(ZeroShScl)   /* shadowScl[a] = 0 */                                       \
  X(IncrFrAtomicR) /* R[a] += R[b] (atomic_ref under OpenMP) */               \
  X(IncrShAtomicR) /* sh.R[a] += R[b] (atomic_ref under OpenMP) */            \
  X(IncrShRedR)  /* shadowScl[a] += R[b] */                                   \
  X(Lin1)        /* I[a] = bounds-checked flat index of desc b, idx I[c] */   \
  X(Lin2)        /* ... indices I[c], I[d] */                                 \
  X(Lin3)        /* ... indices I[c], I[d], I[e] */                           \
  X(LoadR)       /* R[a] = desc[b].r[I[c]] */                                 \
  X(LoadI)       /* I[a] = desc[b].i[I[c]] */                                 \
  X(LoadRedR)    /* R[a] = desc[b].r[I[c]] + shadowArr[d][I[c]] */            \
  X(StoreR)      /* desc[a].r[I[b]] = R[c] */                                 \
  X(StoreI)      /* desc[a].i[I[b]] = I[c] */                                 \
  X(StoreRedR)   /* desc[a].r[I[b]] = R[c]; shadowArr[d][I[b]] = 0 */         \
  X(IncrR)       /* desc[a].r[I[b]] += R[c] */                                \
  X(IncrAtomicR) /* desc[a].r[I[b]] += R[c] (atomic_ref under OpenMP) */      \
  X(IncrRedR)    /* shadowArr[d][I[b]] += R[c] */                             \
  X(PushR) X(PushI) X(PushB) /* lane->push(bank[a]) */                        \
  X(PopR) X(PopI) X(PopB)    /* bank[a] = lane->pop() */                      \
  X(ParallelFor) /* run loop program a with lo=I[b], hi=I[c], step=I[d] */

enum class Op : uint8_t {
#define X(name) name,
  FORMAD_VM_OPS(X)
#undef X
};

const char* opName(Op op) {
  static const char* names[] = {
#define X(name) #name,
      FORMAD_VM_OPS(X)
#undef X
  };
  return names[static_cast<int>(op)];
}

struct Instr {
  Op op = Op::Halt;
  uint8_t bclass = 0;  // array traffic class: 0 none, 1 streaming, 2 tainted
  uint8_t tmask = 0;   // bclass 2: bitmask of data-dependently indexed dims
  uint8_t nacc = 1;    // array accesses to count (2 for RMW increments)
  int32_t a = 0, b = 0, c = 0, d = 0, e = 0;
  double imm = 0.0;
  long long iimm = 0;
  // Profile-mode operation counts charged when this instruction executes.
  float flops = 0, intops = 0, tape = 0, atomics = 0;
};

struct Program {
  std::vector<Instr> code;
  std::vector<SourceLoc> locs;  // side table for runtime diagnostics
  int numR = 0, numI = 0, numB = 0;  // frame sizes (variables + temps)
};

struct LoopProg {
  Program p;
  const ir::For* loop = nullptr;
  const LoopInfo* li = nullptr;
  int counterReg = -1;  // I-bank register of the loop counter (private)
  bool usesTape = false;
  bool reversed = false;
  SourceLoc loc;
};

/// Register layout shared by every program region: each scalar slot owns one
/// register in the bank of its declared type.
struct Layout {
  std::vector<int> regOf;  // scalar slot -> register index in its bank
  int varR = 0, varI = 0, varB = 0;
  std::vector<ir::Scalar> arrayElem;  // array slot -> element type
};

/// Bind-time array descriptor: raw data pointer plus dimensions for the
/// precomputed row-major linearization (dimension 0 fastest).
struct Desc {
  double* r = nullptr;
  long long* i = nullptr;
  long long dim[3] = {1, 1, 1};
  int rank = 1;
  ArrayValue* av = nullptr;
};

struct RunState {
  Desc* descs = nullptr;
  double* shR = nullptr;  // shared bank = the main program's frame
  long long* shI = nullptr;
  uint8_t* shB = nullptr;
  ad::Tape* tape = nullptr;
  bool openmp = false;
  int numThreads = 1;
  VmResult* result = nullptr;
  size_t tapePeak = 0;
};

struct ThreadCtx {
  double* R = nullptr;
  long long* I = nullptr;
  uint8_t* B = nullptr;
  double* shadowScl = nullptr;   // reduction shadows of scalars
  double** shadowArr = nullptr;  // reduction shadows of arrays (realData)
  ad::TapeLane* lane = nullptr;
  OpCounts* counts = nullptr;  // Profile instantiation only
};

inline long long checkIdx(long long i, long long extent) {
  if (i < 0 || i >= extent)
    fail("array index out of bounds: index " + std::to_string(i) +
         " in dimension of extent " + std::to_string(extent));
  return i;
}

inline void addStatic(const Instr& ins, OpCounts& oc) {
  oc.flops += ins.flops;
  oc.intops += ins.intops;
  oc.tapeBytes += ins.tape;
  oc.atomicOps += ins.atomics;
}

/// Byte counting for one array-touching instruction, replicating the
/// tree-walker's cost classification: streaming accesses are sequential
/// traffic; data-dependent accesses count as random traffic only when the
/// reachable span (product of tainted extents) exceeds the cache-resident
/// threshold.
inline void countBytes(const Instr& ins, const Desc& d, OpCounts& oc) {
  double add = 8.0 * ins.nacc;
  if (ins.bclass == 1) {
    oc.seqBytes += add;
    return;
  }
  double span = 8.0;
  for (int k = 0; k < d.rank; ++k)
    if (ins.tmask & (1u << k)) span *= static_cast<double>(d.dim[k]);
  if (span >= kCacheResidentBytes)
    oc.randBytes += add;
  else
    oc.seqBytes += add;
}

/// Compile-time operand: either a literal constant or a typed register.
struct RV {
  enum K { CR, CI, CB, RR, RI, RB } k = CR;
  double d = 0.0;
  long long i = 0;
  bool b = false;
  int reg = -1;

  [[nodiscard]] bool isConst() const { return k == CR || k == CI || k == CB; }
  /// Value::asReal semantics: ints cast, bools read the (zero) real field.
  [[nodiscard]] double asRealConst() const {
    return k == CI ? static_cast<double>(i) : k == CB ? 0.0 : d;
  }
  static RV constR(double v) { return RV{CR, v, 0, false, -1}; }
  static RV constI(long long v) { return RV{CI, 0.0, v, false, -1}; }
  static RV constB(bool v) { return RV{CB, 0.0, 0, v, -1}; }
  static RV regR(int r) { return RV{RR, 0.0, 0, false, r}; }
  static RV regI(int r) { return RV{RI, 0.0, 0, false, r}; }
  static RV regB(int r) { return RV{RB, 0.0, 0, false, r}; }
};

}  // namespace

// -------------------------------------------------------------------- Impl

struct BytecodeEngine::Impl {
  const Kernel& kernel;
  const KernelInfo& info;
  Layout layout;
  Program main;
  std::vector<LoopProg> loops;

  Impl(const Kernel& k, const KernelInfo& ki);

  VmResult run(std::vector<ScalarVal>& sharedScalars,
               std::vector<ArrayValue*>& arrays, ad::Tape& tape,
               const VmOptions& opts);

  template <bool Profile>
  void dispatch(const Program& p, ThreadCtx& tc, RunState& st);

  template <bool Profile>
  void runParallel(RunState& st, const LoopProg& lp, long long lo,
                   long long hi, long long step);

  [[nodiscard]] std::string disassemble() const;
  [[nodiscard]] size_t instructionCount() const;
};

// ----------------------------------------------------------------- compiler

namespace {

/// Compiles one program region (the main body, or one parallel loop body).
/// Holds the temp-register watermarks and the "pending counts" accumulator:
/// when a constant subtree is folded, the operations the tree-walker would
/// have counted at runtime are attached to the next emitted instruction (or
/// a CountNop at statement end), keeping Profile totals identical.
class Compiler {
 public:
  Compiler(BytecodeEngine::Impl& eng, Program& p, const LoopInfo* li)
      : eng_(eng), info_(eng.info), lay_(eng.layout), p_(p), li_(li) {
    topR_ = p_.numR = lay_.varR;
    topI_ = p_.numI = lay_.varI;
    topB_ = p_.numB = lay_.varB;
  }

  void compileProgram(const StmtList& body) {
    compileStmts(body);
    emit(Op::Halt);
  }

 private:
  BytecodeEngine::Impl& eng_;
  const KernelInfo& info_;
  const Layout& lay_;
  Program& p_;
  const LoopInfo* li_;  // non-null when compiling a parallel loop body
  int topR_ = 0, topI_ = 0, topB_ = 0;
  double pendF_ = 0, pendI_ = 0;  // counts of folded operations, unattached

  // ----- emission -----

  Instr& emit(Op op) {
    Instr in;
    in.op = op;
    in.flops = static_cast<float>(pendF_);
    in.intops = static_cast<float>(pendI_);
    pendF_ = pendI_ = 0;
    p_.code.push_back(in);
    return p_.code.back();
  }

  void flushPendingNop() {
    if (pendF_ == 0 && pendI_ == 0) return;
    emit(Op::CountNop);
  }

  [[nodiscard]] int here() const { return static_cast<int>(p_.code.size()); }

  /// Join points flush pending counts first so that counts attached on one
  /// control path can never leak onto another.
  int bindLabel() {
    flushPendingNop();
    return here();
  }

  void patch(int at, int target) {
    p_.code[static_cast<size_t>(at)].d = target;
  }

  int addLoc(SourceLoc l) {
    p_.locs.push_back(l);
    return static_cast<int>(p_.locs.size()) - 1;
  }

  // ----- temporaries (stack discipline, reset per statement) -----

  int tmpR() {
    int r = topR_++;
    p_.numR = std::max(p_.numR, topR_);
    return r;
  }
  int tmpI() {
    int r = topI_++;
    p_.numI = std::max(p_.numI, topI_);
    return r;
  }
  int tmpB() {
    int r = topB_++;
    p_.numB = std::max(p_.numB, topB_);
    return r;
  }

  // ----- operand coercion (Value::asReal / asInt / asBool semantics) -----

  int toR(const RV& v) {
    switch (v.k) {
      case RV::RR: return v.reg;
      case RV::RI: {
        int dst = tmpR();
        Instr& i = emit(Op::IntToReal);
        i.a = dst;
        i.b = v.reg;
        return dst;
      }
      case RV::RB: {  // a bool Value's real field is always 0.0
        int dst = tmpR();
        Instr& i = emit(Op::ConstR);
        i.a = dst;
        i.imm = 0.0;
        return dst;
      }
      default: {
        int dst = tmpR();
        Instr& i = emit(Op::ConstR);
        i.a = dst;
        i.imm = v.asRealConst();
        return dst;
      }
    }
  }

  int toI(const RV& v) {
    if (v.k == RV::RI) return v.reg;
    FORMAD_ASSERT(v.k == RV::CI, "expected int value");
    int dst = tmpI();
    Instr& i = emit(Op::ConstI);
    i.a = dst;
    i.iimm = v.i;
    return dst;
  }

  int toB(const RV& v) {
    if (v.k == RV::RB) return v.reg;
    FORMAD_ASSERT(v.k == RV::CB, "expected bool value");
    int dst = tmpB();
    Instr& i = emit(Op::ConstB);
    i.a = dst;
    i.iimm = v.b ? 1 : 0;
    return dst;
  }

  /// Stores an operand into a frame register of the given declared type.
  void storeR(int dstReg, const RV& v) {
    if (v.k == RV::RR) {
      Instr& i = emit(Op::MovR);
      i.a = dstReg;
      i.b = v.reg;
    } else if (v.k == RV::RI) {
      Instr& i = emit(Op::IntToReal);
      i.a = dstReg;
      i.b = v.reg;
    } else {
      Instr& i = emit(Op::ConstR);
      i.a = dstReg;
      i.imm = v.k == RV::RB ? 0.0 : v.asRealConst();
    }
  }
  void storeI(int dstReg, const RV& v) {
    if (v.k == RV::RI) {
      Instr& i = emit(Op::MovI);
      i.a = dstReg;
      i.b = v.reg;
    } else {
      FORMAD_ASSERT(v.k == RV::CI, "expected int value");
      Instr& i = emit(Op::ConstI);
      i.a = dstReg;
      i.iimm = v.i;
    }
  }
  void storeB(int dstReg, const RV& v) {
    if (v.k == RV::RB) {
      Instr& i = emit(Op::MovB);
      i.a = dstReg;
      i.b = v.reg;
    } else {
      FORMAD_ASSERT(v.k == RV::CB, "expected bool value");
      Instr& i = emit(Op::ConstB);
      i.a = dstReg;
      i.iimm = v.b ? 1 : 0;
    }
  }

  // ----- scalar access resolution (compile-time privatization) -----

  [[nodiscard]] bool isPrivate(int slot) const {
    return li_ == nullptr || li_->privMask[static_cast<size_t>(slot)];
  }
  [[nodiscard]] int shadowSclIdx(int slot) const {
    if (li_ == nullptr) return -1;
    auto it = li_->shadowOfScalar.find(slot);
    return it == li_->shadowOfScalar.end() ? -1 : it->second;
  }
  [[nodiscard]] int shadowArrIdx(int slot) const {
    if (li_ == nullptr) return -1;
    auto it = li_->shadowOfArray.find(slot);
    return it == li_->shadowOfArray.end() ? -1 : it->second;
  }

  RV compileVar(const VarRef& v) {
    int slot = v.slot;
    int reg = lay_.regOf[static_cast<size_t>(slot)];
    Scalar t = info_.scalarType[static_cast<size_t>(slot)];
    int sh = t == Scalar::Real ? shadowSclIdx(slot) : -1;
    if (isPrivate(slot)) {
      if (sh >= 0) {  // reduction read-through (shadow keyed by slot only)
        int dst = tmpR();
        Instr& i = emit(Op::GetFrRedR);
        i.a = dst;
        i.b = reg;
        i.c = sh;
        return RV::regR(dst);
      }
      switch (t) {
        case Scalar::Int: return RV::regI(reg);
        case Scalar::Real: return RV::regR(reg);
        case Scalar::Bool: return RV::regB(reg);
      }
    }
    switch (t) {
      case Scalar::Int: {
        int dst = tmpI();
        Instr& i = emit(Op::GetShI);
        i.a = dst;
        i.b = reg;
        return RV::regI(dst);
      }
      case Scalar::Real: {
        int dst = tmpR();
        Instr& i = emit(sh >= 0 ? Op::GetShRedR : Op::GetShR);
        i.a = dst;
        i.b = reg;
        i.c = sh;
        return RV::regR(dst);
      }
      case Scalar::Bool: {
        int dst = tmpB();
        Instr& i = emit(Op::GetShB);
        i.a = dst;
        i.b = reg;
        return RV::regB(dst);
      }
    }
    FORMAD_ASSERT(false, "bad scalar type");
    return RV::constR(0.0);  // unreachable
  }

  // ----- array access -----

  void applyClass(Instr& ins, const ArrayRef& a) {
    const AccessClass& cls = info_.accessClass.at(&a);
    if (!cls.anyTainted) {
      ins.bclass = 1;
      return;
    }
    ins.bclass = 2;
    uint8_t m = 0;
    for (size_t k = 0; k < cls.dimTainted.size(); ++k)
      if (cls.dimTainted[k]) m |= static_cast<uint8_t>(1u << k);
    ins.tmask = m;
  }

  /// Evaluates the indices and emits the bounds-checked linearization;
  /// returns the I register holding the flat index.
  int compileFlat(const ArrayRef& a) {
    int n = static_cast<int>(a.indices.size());
    int idx[3] = {0, 0, 0};
    for (int k = 0; k < n; ++k) idx[k] = toI(compileExpr(*a.indices[k]));
    int dst = tmpI();
    Instr& i = emit(n == 1 ? Op::Lin1 : n == 2 ? Op::Lin2 : Op::Lin3);
    i.a = dst;
    i.b = a.slot;
    i.c = idx[0];
    i.d = idx[1];
    i.e = idx[2];
    return dst;
  }

  RV compileLoad(const ArrayRef& a) {
    int flat = compileFlat(a);
    if (lay_.arrayElem[static_cast<size_t>(a.slot)] == Scalar::Real) {
      int sh = shadowArrIdx(a.slot);
      int dst = tmpR();
      Instr& i = emit(sh >= 0 ? Op::LoadRedR : Op::LoadR);
      i.a = dst;
      i.b = a.slot;
      i.c = flat;
      i.d = sh;
      applyClass(i, a);
      return RV::regR(dst);
    }
    int dst = tmpI();
    Instr& i = emit(Op::LoadI);
    i.a = dst;
    i.b = a.slot;
    i.c = flat;
    applyClass(i, a);
    return RV::regI(dst);
  }

  // ----- expressions -----

  RV compileExpr(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::IntLit: return RV::constI(e.as<IntLit>().value);
      case ExprKind::RealLit: return RV::constR(e.as<RealLit>().value);
      case ExprKind::BoolLit: return RV::constB(e.as<BoolLit>().value);
      case ExprKind::VarRef: return compileVar(e.as<VarRef>());
      case ExprKind::ArrayRef: return compileLoad(e.as<ArrayRef>());
      case ExprKind::Unary: return compileUnary(e.as<Unary>());
      case ExprKind::Binary: return compileBinary(e.as<Binary>());
      case ExprKind::Call: return compileCall(e.as<Call>());
    }
    FORMAD_ASSERT(false, "bad expression kind");
    return RV::constR(0.0);  // unreachable
  }

  RV compileUnary(const Unary& u) {
    RV v = compileExpr(*u.operand);
    if (u.op == UnOp::Not) {
      if (v.isConst()) {
        FORMAD_ASSERT(v.k == RV::CB, "expected bool value");
        return RV::constB(!v.b);
      }
      int src = toB(v);
      int dst = tmpB();
      Instr& i = emit(Op::NotB);
      i.a = dst;
      i.b = src;
      return RV::regB(dst);
    }
    // Negation: int stays int and is free; everything else is a flop.
    if (v.k == RV::CI) return RV::constI(-v.i);
    if (v.k == RV::RI) {
      int dst = tmpI();
      Instr& i = emit(Op::NegI);
      i.a = dst;
      i.b = v.reg;
      return RV::regI(dst);
    }
    if (v.isConst()) {
      pendF_ += 1;
      return RV::constR(-v.asRealConst());
    }
    int src = toR(v);
    int dst = tmpR();
    Instr& i = emit(Op::NegR);
    i.a = dst;
    i.b = src;
    i.flops += 1;
    return RV::regR(dst);
  }

  RV compileBinary(const Binary& b) {
    if (b.op == BinOp::And || b.op == BinOp::Or) return compileLogic(b);
    RV l = compileExpr(*b.lhs);
    RV r = compileExpr(*b.rhs);
    bool intOp = (l.k == RV::CI || l.k == RV::RI) &&
                 (r.k == RV::CI || r.k == RV::RI);

    if (isComparison(b.op)) {
      if (l.isConst() && r.isConst()) {
        pendI_ += 1;
        if (l.k == RV::CI && r.k == RV::CI)
          return RV::constB(cmpFold(b.op, l.i, r.i));
        return RV::constB(cmpFold(b.op, l.asRealConst(), r.asRealConst()));
      }
      int dst = tmpB();
      if (intOp) {
        int lr = toI(l), rr = toI(r);
        Instr& i = emit(cmpOpI(b.op));
        i.a = dst;
        i.b = lr;
        i.c = rr;
        i.intops += 1;
      } else {
        int lr = toR(l), rr = toR(r);
        Instr& i = emit(cmpOpR(b.op));
        i.a = dst;
        i.b = lr;
        i.c = rr;
        i.intops += 1;  // the tree-walker counts all comparisons as intops
      }
      return RV::regB(dst);
    }

    if (intOp) {
      bool divByZeroConst =
          (b.op == BinOp::Div || b.op == BinOp::Mod) && r.k == RV::CI &&
          r.i == 0;
      if (l.k == RV::CI && r.k == RV::CI && !divByZeroConst) {
        pendI_ += 1;
        return RV::constI(arithFoldI(b.op, l.i, r.i));
      }
      int lr = toI(l), rr = toI(r);
      int dst = tmpI();
      Instr& i = emit(arithOpI(b.op));
      i.a = dst;
      i.b = lr;
      i.c = rr;
      i.intops += 1;
      return RV::regI(dst);
    }

    if (l.isConst() && r.isConst()) {
      pendF_ += 1;
      return RV::constR(arithFoldR(b.op, l.asRealConst(), r.asRealConst()));
    }
    int lr = toR(l), rr = toR(r);
    int dst = tmpR();
    Instr& i = emit(arithOpR(b.op));
    i.a = dst;
    i.b = lr;
    i.c = rr;
    i.flops += 1;
    return RV::regR(dst);
  }

  /// Short-circuit And/Or, mirroring the tree-walker: the rhs (and any
  /// counts folded out of it) evaluates only when the lhs does not decide.
  RV compileLogic(const Binary& b) {
    bool isAnd = b.op == BinOp::And;
    RV l = compileExpr(*b.lhs);
    if (l.isConst()) {
      FORMAD_ASSERT(l.k == RV::CB, "expected bool value");
      if (isAnd && !l.b) return RV::constB(false);
      if (!isAnd && l.b) return RV::constB(true);
      RV r = compileExpr(*b.rhs);
      if (r.isConst()) {
        FORMAD_ASSERT(r.k == RV::CB, "expected bool value");
        return r;
      }
      return RV::regB(toB(r));
    }
    int dst = tmpB();
    {
      Instr& i = emit(Op::MovB);
      i.a = dst;
      i.b = l.reg;
    }
    Instr& br = emit(isAnd ? Op::BrFalse : Op::BrTrue);
    br.a = dst;
    int brAt = here() - 1;
    RV r = compileExpr(*b.rhs);
    int rr = toB(r);
    {
      Instr& i = emit(Op::MovB);
      i.a = dst;
      i.b = rr;
    }
    patch(brAt, bindLabel());
    return RV::regB(dst);
  }

  RV compileCall(const Call& call) {
    Intrinsic fn = call.fn;
    bool binary = fn == Intrinsic::Min || fn == Intrinsic::Max ||
                  fn == Intrinsic::Pow;
    RV a0 = compileExpr(*call.args[0]);
    if (!binary) {
      if (a0.isConst()) {
        pendF_ += kCallFlops;
        return RV::constR(callFold1(fn, a0.asRealConst()));
      }
      int r0 = toR(a0);
      int dst = tmpR();
      Instr& i = emit(callOp(fn));
      i.a = dst;
      i.b = r0;
      i.flops += static_cast<float>(kCallFlops);
      return RV::regR(dst);
    }
    RV a1 = compileExpr(*call.args[1]);
    if (a0.isConst() && a1.isConst()) {
      pendF_ += kCallFlops;
      return RV::constR(callFold2(fn, a0.asRealConst(), a1.asRealConst()));
    }
    int r0 = toR(a0), r1 = toR(a1);
    int dst = tmpR();
    Instr& i = emit(callOp(fn));
    i.a = dst;
    i.b = r0;
    i.c = r1;
    i.flops += static_cast<float>(kCallFlops);
    return RV::regR(dst);
  }

  // ----- fold / opcode tables -----

  template <class T>
  static bool cmpFold(BinOp op, T x, T y) {
    switch (op) {
      case BinOp::Lt: return x < y;
      case BinOp::Le: return x <= y;
      case BinOp::Gt: return x > y;
      case BinOp::Ge: return x >= y;
      case BinOp::Eq: return x == y;
      case BinOp::Ne: return x != y;
      default: FORMAD_ASSERT(false, "bad comparison"); return false;
    }
  }
  static long long arithFoldI(BinOp op, long long x, long long y) {
    switch (op) {
      case BinOp::Add: return x + y;
      case BinOp::Sub: return x - y;
      case BinOp::Mul: return x * y;
      case BinOp::Div: return x / y;  // zero divisor never folded
      case BinOp::Mod: return x % y;
      default: FORMAD_ASSERT(false, "bad binary operator"); return 0;
    }
  }
  static double arithFoldR(BinOp op, double x, double y) {
    switch (op) {
      case BinOp::Add: return x + y;
      case BinOp::Sub: return x - y;
      case BinOp::Mul: return x * y;
      case BinOp::Div: return x / y;
      default: FORMAD_ASSERT(false, "bad binary operator"); return 0.0;
    }
  }
  static double callFold1(Intrinsic fn, double a0) {
    switch (fn) {
      case Intrinsic::Sin: return std::sin(a0);
      case Intrinsic::Cos: return std::cos(a0);
      case Intrinsic::Tan: return std::tan(a0);
      case Intrinsic::Exp: return std::exp(a0);
      case Intrinsic::Log: return std::log(a0);
      case Intrinsic::Sqrt: return std::sqrt(a0);
      case Intrinsic::Abs: return std::fabs(a0);
      case Intrinsic::Tanh: return std::tanh(a0);
      default: FORMAD_ASSERT(false, "bad intrinsic"); return 0.0;
    }
  }
  static double callFold2(Intrinsic fn, double a0, double a1) {
    switch (fn) {
      case Intrinsic::Min: return std::min(a0, a1);
      case Intrinsic::Max: return std::max(a0, a1);
      case Intrinsic::Pow: return std::pow(a0, a1);
      default: FORMAD_ASSERT(false, "bad intrinsic"); return 0.0;
    }
  }
  static Op cmpOpI(BinOp op) {
    switch (op) {
      case BinOp::Lt: return Op::LtI;
      case BinOp::Le: return Op::LeI;
      case BinOp::Gt: return Op::GtI;
      case BinOp::Ge: return Op::GeI;
      case BinOp::Eq: return Op::EqI;
      case BinOp::Ne: return Op::NeI;
      default: FORMAD_ASSERT(false, "bad comparison"); return Op::Halt;
    }
  }
  static Op cmpOpR(BinOp op) {
    switch (op) {
      case BinOp::Lt: return Op::LtR;
      case BinOp::Le: return Op::LeR;
      case BinOp::Gt: return Op::GtR;
      case BinOp::Ge: return Op::GeR;
      case BinOp::Eq: return Op::EqR;
      case BinOp::Ne: return Op::NeR;
      default: FORMAD_ASSERT(false, "bad comparison"); return Op::Halt;
    }
  }
  static Op arithOpI(BinOp op) {
    switch (op) {
      case BinOp::Add: return Op::AddI;
      case BinOp::Sub: return Op::SubI;
      case BinOp::Mul: return Op::MulI;
      case BinOp::Div: return Op::DivI;
      case BinOp::Mod: return Op::ModI;
      default: FORMAD_ASSERT(false, "bad binary operator"); return Op::Halt;
    }
  }
  static Op arithOpR(BinOp op) {
    switch (op) {
      case BinOp::Add: return Op::AddR;
      case BinOp::Sub: return Op::SubR;
      case BinOp::Mul: return Op::MulR;
      case BinOp::Div: return Op::DivR;
      default: FORMAD_ASSERT(false, "bad binary operator"); return Op::Halt;
    }
  }
  static Op callOp(Intrinsic fn) {
    switch (fn) {
      case Intrinsic::Sin: return Op::SinR;
      case Intrinsic::Cos: return Op::CosR;
      case Intrinsic::Tan: return Op::TanR;
      case Intrinsic::Exp: return Op::ExpR;
      case Intrinsic::Log: return Op::LogR;
      case Intrinsic::Sqrt: return Op::SqrtR;
      case Intrinsic::Abs: return Op::AbsR;
      case Intrinsic::Tanh: return Op::TanhR;
      case Intrinsic::Min: return Op::MinR;
      case Intrinsic::Max: return Op::MaxR;
      case Intrinsic::Pow: return Op::PowR;
    }
    FORMAD_ASSERT(false, "bad intrinsic");
    return Op::Halt;
  }

  // ----- statements -----

  void compileStmts(const StmtList& body) {
    for (const auto& s : body) {
      int sr = topR_, si = topI_, sb = topB_;
      compileStmt(*s);
      flushPendingNop();  // counts never cross a statement boundary
      topR_ = sr;
      topI_ = si;
      topB_ = sb;
    }
  }

  void compileStmt(const Stmt& s) {
    switch (s.kind()) {
      case StmtKind::Assign: compileAssign(s.as<Assign>()); return;
      case StmtKind::DeclLocal: {
        const auto& d = s.as<DeclLocal>();
        if (!d.init) return;
        RV v = compileExpr(*d.init);
        // Locals are private inside parallel loops by construction.
        int reg = lay_.regOf[static_cast<size_t>(info_.scalarSlot.at(d.name))];
        switch (d.type.scalar) {
          case Scalar::Int: storeI(reg, v); break;
          case Scalar::Real: storeR(reg, v); break;
          case Scalar::Bool: storeB(reg, v); break;
        }
        return;
      }
      case StmtKind::If: compileIf(s.as<If>()); return;
      case StmtKind::Push: {
        const auto& pu = s.as<Push>();
        RV v = compileExpr(*pu.value);
        switch (pu.channel) {
          case TapeChannel::Real: {
            int r = toR(v);
            Instr& i = emit(Op::PushR);
            i.a = r;
            i.tape = 8;
            break;
          }
          case TapeChannel::Int: {
            int r = toI(v);
            Instr& i = emit(Op::PushI);
            i.a = r;
            i.tape = 8;
            break;
          }
          case TapeChannel::Bool: {
            int r = toB(v);
            Instr& i = emit(Op::PushB);
            i.a = r;
            i.tape = 8;
            break;
          }
        }
        return;
      }
      case StmtKind::Pop: {
        const auto& po = s.as<Pop>();
        int slot = info_.scalarSlot.at(po.target);
        Scalar t = info_.scalarType[static_cast<size_t>(slot)];
        int reg = lay_.regOf[static_cast<size_t>(slot)];
        switch (po.channel) {
          case TapeChannel::Real: {
            // A channel/type mismatch writes a dead field in the
            // tree-walker; discard into a temp to stay equivalent.
            Instr& i = emit(Op::PopR);
            i.a = t == Scalar::Real ? reg : tmpR();
            i.tape = 8;
            break;
          }
          case TapeChannel::Int: {
            Instr& i = emit(Op::PopI);
            i.a = t == Scalar::Int ? reg : tmpI();
            i.tape = 8;
            break;
          }
          case TapeChannel::Bool: {
            Instr& i = emit(Op::PopB);
            i.a = t == Scalar::Bool ? reg : tmpB();
            i.tape = 8;
            break;
          }
        }
        return;
      }
      case StmtKind::For: {
        const auto& f = s.as<For>();
        if (f.parallel)
          compileParallelFor(f);
        else
          compileSerialFor(f);
        return;
      }
    }
  }

  void compileIf(const If& s) {
    RV cond = compileExpr(*s.cond);
    if (cond.isConst()) {
      FORMAD_ASSERT(cond.k == RV::CB, "expected bool value");
      // Only the taken branch exists; counts folded out of the condition
      // attach inside it (it executes whenever the If does).
      compileStmts(cond.b ? s.thenBody : s.elseBody);
      return;
    }
    Instr& br = emit(Op::BrFalse);
    br.a = cond.reg;
    int brAt = here() - 1;
    compileStmts(s.thenBody);
    if (s.elseBody.empty()) {
      patch(brAt, bindLabel());
      return;
    }
    emit(Op::Jmp);
    int jmpAt = here() - 1;
    patch(brAt, bindLabel());
    compileStmts(s.elseBody);
    patch(jmpAt, bindLabel());
  }

  /// Materializes lo/hi/step into fresh temps (the body may overwrite the
  /// source variables) and returns their registers.
  void compileRange(const For& f, int& tLo, int& tHi, int& tStep,
                    int& tCount) {
    RV lo = compileExpr(*f.lo);
    RV hi = compileExpr(*f.hi);
    RV step = compileExpr(*f.step);
    tLo = tmpI();
    storeI(tLo, lo);
    tHi = tmpI();
    storeI(tHi, hi);
    tStep = tmpI();
    storeI(tStep, step);
    tCount = tmpI();
    Instr& i = emit(Op::LoopRange);
    i.a = tCount;
    i.b = tLo;
    i.c = tHi;
    i.d = tStep;
    i.e = addLoc(f.loc());
  }

  void compileSerialFor(const For& f) {
    int tLo, tHi, tStep, tCount;
    compileRange(f, tLo, tHi, tStep, tCount);
    int tK = tmpI();
    int varReg =
        lay_.regOf[static_cast<size_t>(info_.scalarSlot.at(f.var))];
    if (f.reversed) {
      {
        Instr& i = emit(Op::MovI);
        i.a = tK;
        i.b = tCount;
      }
      {
        Instr& i = emit(Op::AddImmI);
        i.a = tK;
        i.iimm = -1;
      }
      int head = bindLabel();
      Instr& br = emit(Op::BrLtZ);
      br.a = tK;
      int brAt = here() - 1;
      {
        Instr& i = emit(Op::LoopIdx);
        i.a = varReg;
        i.b = tLo;
        i.c = tK;
        i.d = tStep;
      }
      compileStmts(f.body);
      {
        Instr& i = emit(Op::AddImmI);
        i.a = tK;
        i.iimm = -1;
      }
      Instr& j = emit(Op::Jmp);
      j.d = head;
      patch(brAt, bindLabel());
    } else {
      {
        Instr& i = emit(Op::ConstI);
        i.a = tK;
        i.iimm = 0;
      }
      int head = bindLabel();
      Instr& br = emit(Op::BrGeI);
      br.a = tK;
      br.b = tCount;
      int brAt = here() - 1;
      {
        Instr& i = emit(Op::LoopIdx);
        i.a = varReg;
        i.b = tLo;
        i.c = tK;
        i.d = tStep;
      }
      compileStmts(f.body);
      {
        Instr& i = emit(Op::AddImmI);
        i.a = tK;
        i.iimm = 1;
      }
      Instr& j = emit(Op::Jmp);
      j.d = head;
      patch(brAt, bindLabel());
    }
  }

  void compileParallelFor(const For& f) {
    if (li_ != nullptr)
      fail("nested parallel loops are not supported by the bytecode engine",
           f.loc());
    RV lo = compileExpr(*f.lo);
    RV hi = compileExpr(*f.hi);
    RV step = compileExpr(*f.step);
    int tLo = tmpI();
    storeI(tLo, lo);
    int tHi = tmpI();
    storeI(tHi, hi);
    int tStep = tmpI();
    storeI(tStep, step);

    int idx = static_cast<int>(eng_.loops.size());
    eng_.loops.emplace_back();
    {
      LoopProg& lp = eng_.loops.back();
      lp.loop = &f;
      lp.li = &info_.loopInfo.at(&f);
      lp.usesTape = f.usesTape;
      lp.reversed = f.reversed;
      lp.loc = f.loc();
      lp.counterReg =
          lay_.regOf[static_cast<size_t>(info_.scalarSlot.at(f.var))];
      Compiler inner(eng_, lp.p, lp.li);
      inner.compileProgram(f.body);
    }
    Instr& i = emit(Op::ParallelFor);
    i.a = idx;
    i.b = tLo;
    i.c = tHi;
    i.d = tStep;
  }

  void compileAssign(const Assign& a) {
    const AssignInfo& ai = info_.assignInfo.at(&a);

    if (a.guard != Guard::None) {
      FORMAD_ASSERT(ai.isIncrement, "guarded statement is not an increment");
      RV v = compileExpr(*ai.addend);
      int src = toR(v);
      if (ai.negated) {  // the tree-walker's negation is uncounted
        int d2 = tmpR();
        Instr& n = emit(Op::NegR);
        n.a = d2;
        n.b = src;
        src = d2;
      }
      if (a.lhs->kind() == ExprKind::ArrayRef) {
        const auto& ar = a.lhs->as<ArrayRef>();
        int flat = compileFlat(ar);
        int sh = shadowArrIdx(ar.slot);
        Op op;
        if (a.guard == Guard::Reduction && li_ != nullptr) {
          if (sh < 0)
            fail("reduction-guarded increment of non-reduction array '" +
                     ar.name + "'",
                 a.loc());
          op = Op::IncrRedR;
        } else if (a.guard == Guard::Atomic) {
          op = Op::IncrAtomicR;
        } else {
          op = Op::IncrR;  // reduction guard outside a parallel loop
        }
        Instr& i = emit(op);
        i.a = ar.slot;
        i.b = flat;
        i.c = src;
        i.d = sh;
        i.flops += 1;
        if (a.guard == Guard::Atomic) i.atomics += 1;
        applyClass(i, ar);
        i.nacc = 2;  // increment = read + write of the target
      } else {
        const auto& vr = a.lhs->as<VarRef>();
        int reg = lay_.regOf[static_cast<size_t>(vr.slot)];
        if (a.guard == Guard::Reduction && li_ != nullptr) {
          int sh = shadowSclIdx(vr.slot);
          if (sh < 0)
            fail("reduction-guarded increment of non-reduction scalar '" +
                     vr.name + "'",
                 a.loc());
          Instr& i = emit(Op::IncrShRedR);
          i.a = sh;
          i.b = src;
          i.flops += 1;
        } else if (a.guard == Guard::Atomic) {
          Instr& i = emit(isPrivate(vr.slot) ? Op::IncrFrAtomicR
                                             : Op::IncrShAtomicR);
          i.a = reg;
          i.b = src;
          i.flops += 1;
          i.atomics += 1;
        } else {  // reduction guard outside a parallel loop: plain +=
          Instr& i = emit(Op::AddR);
          i.a = reg;
          i.b = reg;
          i.c = src;
          i.flops += 1;
        }
      }
      return;
    }

    RV v = compileExpr(*a.rhs);
    if (a.lhs->kind() == ExprKind::ArrayRef) {
      const auto& ar = a.lhs->as<ArrayRef>();
      if (lay_.arrayElem[static_cast<size_t>(ar.slot)] == Scalar::Real) {
        int src = toR(v);
        int flat = compileFlat(ar);
        int sh = shadowArrIdx(ar.slot);
        // Overwriting an element of a privatized array supersedes the
        // thread's pending increments for it.
        Instr& i = emit(sh >= 0 ? Op::StoreRedR : Op::StoreR);
        i.a = ar.slot;
        i.b = flat;
        i.c = src;
        i.d = sh;
        applyClass(i, ar);
      } else {
        int src = toI(v);
        int flat = compileFlat(ar);
        Instr& i = emit(Op::StoreI);
        i.a = ar.slot;
        i.b = flat;
        i.c = src;
        applyClass(i, ar);
      }
      return;
    }

    const auto& vr = a.lhs->as<VarRef>();
    int reg = lay_.regOf[static_cast<size_t>(vr.slot)];
    Scalar t = info_.scalarType[static_cast<size_t>(vr.slot)];
    switch (t) {
      case Scalar::Int:
        if (isPrivate(vr.slot)) {
          storeI(reg, v);
        } else {
          int src = toI(v);
          Instr& i = emit(Op::SetShI);
          i.a = reg;
          i.b = src;
        }
        break;
      case Scalar::Bool:
        if (isPrivate(vr.slot)) {
          storeB(reg, v);
        } else {
          int src = toB(v);
          Instr& i = emit(Op::SetShB);
          i.a = reg;
          i.b = src;
        }
        break;
      case Scalar::Real: {
        int sh = shadowSclIdx(vr.slot);
        if (isPrivate(vr.slot)) {
          storeR(reg, v);
          if (sh >= 0) {  // overwrite supersedes pending increments
            Instr& i = emit(Op::ZeroShScl);
            i.a = sh;
          }
        } else if (sh >= 0) {
          int src = toR(v);
          Instr& i = emit(Op::SetShRedR);
          i.a = reg;
          i.b = src;
          i.c = sh;
        } else {
          int src = toR(v);
          Instr& i = emit(Op::SetShR);
          i.a = reg;
          i.b = src;
        }
        break;
      }
    }
  }
};

}  // namespace

// ------------------------------------------------------------- compilation

BytecodeEngine::Impl::Impl(const Kernel& k, const KernelInfo& ki)
    : kernel(k), info(ki) {
  layout.regOf.assign(static_cast<size_t>(info.scalarCount), -1);
  for (int s = 0; s < info.scalarCount; ++s) {
    switch (info.scalarType[static_cast<size_t>(s)]) {
      case Scalar::Int: layout.regOf[static_cast<size_t>(s)] = layout.varI++; break;
      case Scalar::Real: layout.regOf[static_cast<size_t>(s)] = layout.varR++; break;
      case Scalar::Bool: layout.regOf[static_cast<size_t>(s)] = layout.varB++; break;
    }
  }
  layout.arrayElem.assign(static_cast<size_t>(info.arrayCount), Scalar::Real);
  for (const auto& [name, sym] : info.syms.all())
    if (sym.type.isArray())
      layout.arrayElem[static_cast<size_t>(info.arraySlot.at(name))] =
          sym.type.scalar;

  Compiler c(*this, main, nullptr);
  c.compileProgram(kernel.body);
}

// --------------------------------------------------------------- execution

template <bool Profile>
void BytecodeEngine::Impl::dispatch(const Program& p, ThreadCtx& tc,
                                    RunState& st) {
  const Instr* code = p.code.data();
  const Instr* ins = nullptr;
  long long pc = 0;

#define R_(f) tc.R[static_cast<size_t>(ins->f)]
#define I_(f) tc.I[static_cast<size_t>(ins->f)]
#define B_(f) tc.B[static_cast<size_t>(ins->f)]

#if defined(__GNUC__) || defined(__clang__)
  // Direct-threaded dispatch: each handler jumps straight to the next
  // instruction's handler through the label table.
  static const void* jump[] = {
#define X(name) &&L_##name,
      FORMAD_VM_OPS(X)
#undef X
  };
#define OP(name) L_##name:
#define DISPATCH()                                          \
  do {                                                      \
    ins = code + pc;                                        \
    if constexpr (Profile) addStatic(*ins, *tc.counts);     \
    goto* jump[static_cast<int>(ins->op)];                  \
  } while (0)
#define NEXT   \
  ++pc;        \
  DISPATCH()
#define JUMP(t) \
  pc = (t);     \
  DISPATCH()
  DISPATCH();
#else
#define OP(name) case Op::name:
#define NEXT \
  ++pc;      \
  break
#define JUMP(t) \
  pc = (t);     \
  break
  for (;;) {
    ins = code + pc;
    if constexpr (Profile) addStatic(*ins, *tc.counts);
    switch (ins->op) {
#endif

  OP(Halt) {
#if defined(__GNUC__) || defined(__clang__)
    goto done;
#else
    return;
#endif
  }
  OP(CountNop) { NEXT; }
  OP(ConstR) { R_(a) = ins->imm; NEXT; }
  OP(ConstI) { I_(a) = ins->iimm; NEXT; }
  OP(ConstB) { B_(a) = static_cast<uint8_t>(ins->iimm); NEXT; }
  OP(MovR) { R_(a) = R_(b); NEXT; }
  OP(MovI) { I_(a) = I_(b); NEXT; }
  OP(MovB) { B_(a) = B_(b); NEXT; }
  OP(IntToReal) { R_(a) = static_cast<double>(I_(b)); NEXT; }
  OP(AddR) { R_(a) = R_(b) + R_(c); NEXT; }
  OP(SubR) { R_(a) = R_(b) - R_(c); NEXT; }
  OP(MulR) { R_(a) = R_(b) * R_(c); NEXT; }
  OP(DivR) { R_(a) = R_(b) / R_(c); NEXT; }
  OP(NegR) { R_(a) = -R_(b); NEXT; }
  OP(AddI) { I_(a) = I_(b) + I_(c); NEXT; }
  OP(SubI) { I_(a) = I_(b) - I_(c); NEXT; }
  OP(MulI) { I_(a) = I_(b) * I_(c); NEXT; }
  OP(DivI) {
    if (I_(c) == 0) fail("integer division by zero");
    I_(a) = I_(b) / I_(c);
    NEXT;
  }
  OP(ModI) {
    if (I_(c) == 0) fail("integer modulo by zero");
    I_(a) = I_(b) % I_(c);
    NEXT;
  }
  OP(NegI) { I_(a) = -I_(b); NEXT; }
  OP(AddImmI) { I_(a) += ins->iimm; NEXT; }
  OP(LtR) { B_(a) = R_(b) < R_(c); NEXT; }
  OP(LeR) { B_(a) = R_(b) <= R_(c); NEXT; }
  OP(GtR) { B_(a) = R_(b) > R_(c); NEXT; }
  OP(GeR) { B_(a) = R_(b) >= R_(c); NEXT; }
  OP(EqR) { B_(a) = R_(b) == R_(c); NEXT; }
  OP(NeR) { B_(a) = R_(b) != R_(c); NEXT; }
  OP(LtI) { B_(a) = I_(b) < I_(c); NEXT; }
  OP(LeI) { B_(a) = I_(b) <= I_(c); NEXT; }
  OP(GtI) { B_(a) = I_(b) > I_(c); NEXT; }
  OP(GeI) { B_(a) = I_(b) >= I_(c); NEXT; }
  OP(EqI) { B_(a) = I_(b) == I_(c); NEXT; }
  OP(NeI) { B_(a) = I_(b) != I_(c); NEXT; }
  OP(NotB) { B_(a) = B_(b) == 0 ? 1 : 0; NEXT; }
  OP(SinR) { R_(a) = std::sin(R_(b)); NEXT; }
  OP(CosR) { R_(a) = std::cos(R_(b)); NEXT; }
  OP(TanR) { R_(a) = std::tan(R_(b)); NEXT; }
  OP(ExpR) { R_(a) = std::exp(R_(b)); NEXT; }
  OP(LogR) { R_(a) = std::log(R_(b)); NEXT; }
  OP(SqrtR) { R_(a) = std::sqrt(R_(b)); NEXT; }
  OP(AbsR) { R_(a) = std::fabs(R_(b)); NEXT; }
  OP(TanhR) { R_(a) = std::tanh(R_(b)); NEXT; }
  OP(MinR) { R_(a) = std::min(R_(b), R_(c)); NEXT; }
  OP(MaxR) { R_(a) = std::max(R_(b), R_(c)); NEXT; }
  OP(PowR) { R_(a) = std::pow(R_(b), R_(c)); NEXT; }
  OP(Jmp) { JUMP(ins->d); }
  OP(BrFalse) {
    if (B_(a) == 0) { JUMP(ins->d); }
    NEXT;
  }
  OP(BrTrue) {
    if (B_(a) != 0) { JUMP(ins->d); }
    NEXT;
  }
  OP(BrGeI) {
    if (I_(a) >= I_(b)) { JUMP(ins->d); }
    NEXT;
  }
  OP(BrLtZ) {
    if (I_(a) < 0) { JUMP(ins->d); }
    NEXT;
  }
  OP(LoopRange) {
    long long lo = I_(b), hi = I_(c), step = I_(d);
    if (step <= 0)
      fail("loop step must be positive",
           p.locs[static_cast<size_t>(ins->e)]);
    I_(a) = hi >= lo ? (hi - lo) / step + 1 : 0;
    NEXT;
  }
  OP(LoopIdx) { I_(a) = I_(b) + I_(c) * I_(d); NEXT; }
  OP(GetShR) { R_(a) = st.shR[static_cast<size_t>(ins->b)]; NEXT; }
  OP(GetShI) { I_(a) = st.shI[static_cast<size_t>(ins->b)]; NEXT; }
  OP(GetShB) { B_(a) = st.shB[static_cast<size_t>(ins->b)]; NEXT; }
  OP(GetShRedR) {
    R_(a) = st.shR[static_cast<size_t>(ins->b)] +
            tc.shadowScl[static_cast<size_t>(ins->c)];
    NEXT;
  }
  OP(GetFrRedR) {
    R_(a) = R_(b) + tc.shadowScl[static_cast<size_t>(ins->c)];
    NEXT;
  }
  OP(SetShR) { st.shR[static_cast<size_t>(ins->a)] = R_(b); NEXT; }
  OP(SetShI) { st.shI[static_cast<size_t>(ins->a)] = I_(b); NEXT; }
  OP(SetShB) { st.shB[static_cast<size_t>(ins->a)] = B_(b); NEXT; }
  OP(SetShRedR) {
    st.shR[static_cast<size_t>(ins->a)] = R_(b);
    tc.shadowScl[static_cast<size_t>(ins->c)] = 0.0;
    NEXT;
  }
  OP(ZeroShScl) { tc.shadowScl[static_cast<size_t>(ins->a)] = 0.0; NEXT; }
  OP(IncrFrAtomicR) {
    if (st.openmp)
      std::atomic_ref<double>(R_(a)).fetch_add(R_(b));
    else
      R_(a) += R_(b);
    NEXT;
  }
  OP(IncrShAtomicR) {
    if (st.openmp)
      std::atomic_ref<double>(st.shR[static_cast<size_t>(ins->a)])
          .fetch_add(R_(b));
    else
      st.shR[static_cast<size_t>(ins->a)] += R_(b);
    NEXT;
  }
  OP(IncrShRedR) {
    tc.shadowScl[static_cast<size_t>(ins->a)] += R_(b);
    NEXT;
  }
  OP(Lin1) {
    const Desc& d = st.descs[ins->b];
    I_(a) = checkIdx(I_(c), d.dim[0]);
    NEXT;
  }
  OP(Lin2) {
    const Desc& d = st.descs[ins->b];
    I_(a) = checkIdx(I_(c), d.dim[0]) + d.dim[0] * checkIdx(I_(d), d.dim[1]);
    NEXT;
  }
  OP(Lin3) {
    const Desc& d = st.descs[ins->b];
    I_(a) = checkIdx(I_(c), d.dim[0]) +
            d.dim[0] * (checkIdx(I_(d), d.dim[1]) +
                        d.dim[1] * checkIdx(I_(e), d.dim[2]));
    NEXT;
  }
  OP(LoadR) {
    const Desc& d = st.descs[ins->b];
    if constexpr (Profile) countBytes(*ins, d, *tc.counts);
    R_(a) = d.r[I_(c)];
    NEXT;
  }
  OP(LoadI) {
    const Desc& d = st.descs[ins->b];
    if constexpr (Profile) countBytes(*ins, d, *tc.counts);
    I_(a) = d.i[I_(c)];
    NEXT;
  }
  OP(LoadRedR) {
    const Desc& d = st.descs[ins->b];
    if constexpr (Profile) countBytes(*ins, d, *tc.counts);
    long long flat = I_(c);
    R_(a) = d.r[flat] + tc.shadowArr[ins->d][flat];
    NEXT;
  }
  OP(StoreR) {
    const Desc& d = st.descs[ins->a];
    if constexpr (Profile) countBytes(*ins, d, *tc.counts);
    d.r[I_(b)] = R_(c);
    NEXT;
  }
  OP(StoreI) {
    const Desc& d = st.descs[ins->a];
    if constexpr (Profile) countBytes(*ins, d, *tc.counts);
    d.i[I_(b)] = I_(c);
    NEXT;
  }
  OP(StoreRedR) {
    const Desc& d = st.descs[ins->a];
    if constexpr (Profile) countBytes(*ins, d, *tc.counts);
    long long flat = I_(b);
    d.r[flat] = R_(c);
    tc.shadowArr[ins->d][flat] = 0.0;
    NEXT;
  }
  OP(IncrR) {
    const Desc& d = st.descs[ins->a];
    if constexpr (Profile) countBytes(*ins, d, *tc.counts);
    d.r[I_(b)] += R_(c);
    NEXT;
  }
  OP(IncrAtomicR) {
    const Desc& d = st.descs[ins->a];
    if constexpr (Profile) countBytes(*ins, d, *tc.counts);
    if (st.openmp)
      std::atomic_ref<double>(d.r[I_(b)]).fetch_add(R_(c));
    else
      d.r[I_(b)] += R_(c);
    NEXT;
  }
  OP(IncrRedR) {
    const Desc& d = st.descs[ins->a];
    if constexpr (Profile) countBytes(*ins, d, *tc.counts);
    tc.shadowArr[ins->d][I_(b)] += R_(c);
    NEXT;
  }
  OP(PushR) { tc.lane->pushReal(R_(a)); NEXT; }
  OP(PushI) { tc.lane->pushInt(I_(a)); NEXT; }
  OP(PushB) { tc.lane->pushBool(B_(a) != 0); NEXT; }
  OP(PopR) { R_(a) = tc.lane->popReal(); NEXT; }
  OP(PopI) { I_(a) = tc.lane->popInt(); NEXT; }
  OP(PopB) { B_(a) = tc.lane->popBool() ? 1 : 0; NEXT; }
  OP(ParallelFor) {
    runParallel<Profile>(st, loops[static_cast<size_t>(ins->a)], I_(b), I_(c),
                         I_(d));
    NEXT;
  }

#if defined(__GNUC__) || defined(__clang__)
done:
  return;
#else
    }
  }
#endif
#undef OP
#undef NEXT
#undef JUMP
#undef DISPATCH
#undef R_
#undef I_
#undef B_
}

template <bool Profile>
void BytecodeEngine::Impl::runParallel(RunState& st, const LoopProg& lp,
                                       long long lo, long long hi,
                                       long long step) {
  if (step <= 0) fail("loop step must be positive", lp.loc);
  long long count = hi >= lo ? (hi - lo) / step + 1 : 0;
  const LoopInfo& li = *lp.li;

  ad::LaneBlock* block = nullptr;
  if (lp.usesTape)
    block = lp.reversed
                ? &st.tape->backBlock()
                : &st.tape->pushBlock(lo, step, static_cast<size_t>(count));

  LoopProfile* prof = nullptr;
  if constexpr (Profile) {
    auto& loopProfiles = st.result->profile.loops;
    loopProfiles.emplace_back();
    prof = &loopProfiles.back();
    prof->loop = lp.loop;
    prof->dynamicSchedule = lp.loop->sched == Schedule::Dynamic;
    prof->perIteration.resize(static_cast<size_t>(count));
    for (int slot : li.redArraySlots)
      prof->reductionBytes +=
          static_cast<double>(st.descs[static_cast<size_t>(slot)].av->bytes());
    prof->reductionBytes += 8.0 * static_cast<double>(li.redScalarSlots.size());
  }

  auto makeShadows = [&](std::vector<ArrayValue>& arrSh,
                         std::vector<double*>& shPtr,
                         std::vector<double>& sclSh) {
    for (int slot : li.redArraySlots) {
      const ArrayValue& src = *st.descs[static_cast<size_t>(slot)].av;
      std::vector<long long> dims;
      for (int k = 0; k < src.rank(); ++k) dims.push_back(src.dim(k));
      arrSh.push_back(ArrayValue::reals(std::move(dims)));
    }
    shPtr.reserve(arrSh.size());
    for (auto& a : arrSh) shPtr.push_back(a.realData().data());
    sclSh.assign(li.redScalarSlots.size(), 0.0);
  };
  auto mergeShadows = [&](std::vector<ArrayValue>& arrSh,
                          std::vector<double>& sclSh) {
    for (size_t j = 0; j < li.redArraySlots.size(); ++j) {
      ArrayValue& dst =
          *st.descs[static_cast<size_t>(li.redArraySlots[j])].av;
      const auto& src = arrSh[j].realData();
      for (size_t e = 0; e < src.size(); ++e) dst.realData()[e] += src[e];
    }
    for (size_t j = 0; j < li.redScalarSlots.size(); ++j)
      st.shR[static_cast<size_t>(
          layout.regOf[static_cast<size_t>(li.redScalarSlots[j])])] +=
          sclSh[j];
  };

  if (st.openmp) {
    omp_set_schedule(lp.loop->sched == Schedule::Dynamic ? omp_sched_dynamic
                                                         : omp_sched_static,
                     lp.loop->sched == Schedule::Dynamic ? 1 : 0);
    // Guards the shadow merges. Taking it also on entry to and exit from
    // the region restates, as std::mutex ordering, the fork/join ordering
    // libgomp's barriers already give: ThreadSanitizer cannot see those
    // barriers, and without this would report the team's accesses as
    // racing the encountering thread's before and after the region.
    std::mutex mergeMu;
    { std::lock_guard<std::mutex> fork(mergeMu); }
#pragma omp parallel num_threads(st.numThreads)
    {
      { std::lock_guard<std::mutex> joinTeam(mergeMu); }
      std::vector<double> fR(static_cast<size_t>(lp.p.numR), 0.0);
      std::vector<long long> fI(static_cast<size_t>(lp.p.numI), 0);
      std::vector<uint8_t> fB(static_cast<size_t>(lp.p.numB), 0);
      std::vector<ArrayValue> arrSh;
      std::vector<double*> shPtr;
      std::vector<double> sclSh;
      makeShadows(arrSh, shPtr, sclSh);
      ThreadCtx tc;
      tc.R = fR.data();
      tc.I = fI.data();
      tc.B = fB.data();
      tc.shadowArr = shPtr.data();
      tc.shadowScl = sclSh.data();
#pragma omp for schedule(runtime)
      for (long long k = 0; k < count; ++k) {
        long long iter = lo + k * step;
        tc.I[static_cast<size_t>(lp.counterReg)] = iter;
        tc.lane = block ? &block->lane(iter) : nullptr;
        dispatch<false>(lp.p, tc, st);
      }
      std::lock_guard<std::mutex> merge(mergeMu);
      mergeShadows(arrSh, sclSh);
    }
    { std::lock_guard<std::mutex> join(mergeMu); }
  } else {
    std::vector<double> fR(static_cast<size_t>(lp.p.numR), 0.0);
    std::vector<long long> fI(static_cast<size_t>(lp.p.numI), 0);
    std::vector<uint8_t> fB(static_cast<size_t>(lp.p.numB), 0);
    std::vector<ArrayValue> arrSh;
    std::vector<double*> shPtr;
    std::vector<double> sclSh;
    makeShadows(arrSh, shPtr, sclSh);
    ThreadCtx tc;
    tc.R = fR.data();
    tc.I = fI.data();
    tc.B = fB.data();
    tc.shadowArr = shPtr.data();
    tc.shadowScl = sclSh.data();
    OpCounts iterCounts;
    if constexpr (Profile) tc.counts = &iterCounts;
    for (long long k = 0; k < count; ++k) {
      long long iter = lo + k * step;
      tc.I[static_cast<size_t>(lp.counterReg)] = iter;
      tc.lane = block ? &block->lane(iter) : nullptr;
      if constexpr (Profile) iterCounts = OpCounts{};
      dispatch<Profile>(lp.p, tc, st);
      if constexpr (Profile)
        prof->perIteration[static_cast<size_t>(k)] = iterCounts;
    }
    mergeShadows(arrSh, sclSh);
  }

  st.tapePeak = std::max(st.tapePeak, st.tape->bytes());
  if (lp.usesTape && lp.reversed) st.tape->popBlock();
}

VmResult BytecodeEngine::Impl::run(std::vector<ScalarVal>& sharedScalars,
                                   std::vector<ArrayValue*>& arrays,
                                   ad::Tape& tape, const VmOptions& opts) {
  VmResult result;

  std::vector<Desc> descs(arrays.size());
  for (size_t s = 0; s < arrays.size(); ++s) {
    ArrayValue* a = arrays[s];
    FORMAD_ASSERT(a != nullptr, "array not bound");
    Desc& d = descs[s];
    d.av = a;
    d.rank = a->rank();
    for (int k = 0; k < d.rank; ++k) d.dim[k] = a->dim(k);
    if (a->elem() == Scalar::Real)
      d.r = a->realData().data();
    else
      d.i = a->intData().data();
  }

  // The main program's frame doubles as the shared scalar bank.
  std::vector<double> fR(static_cast<size_t>(main.numR), 0.0);
  std::vector<long long> fI(static_cast<size_t>(main.numI), 0);
  std::vector<uint8_t> fB(static_cast<size_t>(main.numB), 0);
  for (int s = 0; s < info.scalarCount; ++s) {
    int r = layout.regOf[static_cast<size_t>(s)];
    const ScalarVal& sv = sharedScalars[static_cast<size_t>(s)];
    switch (info.scalarType[static_cast<size_t>(s)]) {
      case Scalar::Int: fI[static_cast<size_t>(r)] = sv.i; break;
      case Scalar::Real: fR[static_cast<size_t>(r)] = sv.r; break;
      case Scalar::Bool: fB[static_cast<size_t>(r)] = sv.b ? 1 : 0; break;
    }
  }

  RunState st;
  st.descs = descs.data();
  st.shR = fR.data();
  st.shI = fI.data();
  st.shB = fB.data();
  st.tape = &tape;
  st.openmp = opts.openmp;
  st.numThreads = opts.numThreads;
  st.result = &result;

  ThreadCtx tc;
  tc.R = fR.data();
  tc.I = fI.data();
  tc.B = fB.data();
  tc.lane = &tape.mainLane();
  if (opts.profile) tc.counts = &result.profile.serial;

  if (opts.profile)
    dispatch<true>(main, tc, st);
  else
    dispatch<false>(main, tc, st);

  for (int s = 0; s < info.scalarCount; ++s) {
    int r = layout.regOf[static_cast<size_t>(s)];
    ScalarVal& sv = sharedScalars[static_cast<size_t>(s)];
    switch (info.scalarType[static_cast<size_t>(s)]) {
      case Scalar::Int: sv.i = fI[static_cast<size_t>(r)]; break;
      case Scalar::Real: sv.r = fR[static_cast<size_t>(r)]; break;
      case Scalar::Bool: sv.b = fB[static_cast<size_t>(r)] != 0; break;
    }
  }

  result.tapePeakBytes = st.tapePeak;
  return result;
}

// ------------------------------------------------------------- diagnostics

namespace {
void disasmProgram(std::ostringstream& os, const std::string& title,
                   const Program& p) {
  os << title << " (" << p.code.size() << " instrs, frame R" << p.numR << " I"
     << p.numI << " B" << p.numB << ")\n";
  for (size_t k = 0; k < p.code.size(); ++k) {
    const Instr& i = p.code[k];
    os << "  " << k << ": " << opName(i.op) << " a=" << i.a << " b=" << i.b
       << " c=" << i.c << " d=" << i.d << " e=" << i.e;
    if (i.op == Op::ConstR) os << " imm=" << i.imm;
    if (i.op == Op::ConstI || i.op == Op::ConstB || i.op == Op::AddImmI)
      os << " iimm=" << i.iimm;
    if (i.flops != 0) os << " flops=" << i.flops;
    if (i.intops != 0) os << " intops=" << i.intops;
    if (i.tape != 0) os << " tape=" << i.tape;
    if (i.atomics != 0) os << " atomics=" << i.atomics;
    if (i.bclass != 0)
      os << " bclass=" << int(i.bclass) << " tmask=" << int(i.tmask)
         << " nacc=" << int(i.nacc);
    os << "\n";
  }
}
}  // namespace

std::string BytecodeEngine::Impl::disassemble() const {
  std::ostringstream os;
  disasmProgram(os, "main", main);
  for (size_t j = 0; j < loops.size(); ++j)
    disasmProgram(os, "loop[" + std::to_string(j) + "]", loops[j].p);
  return os.str();
}

size_t BytecodeEngine::Impl::instructionCount() const {
  size_t n = main.code.size();
  for (const auto& lp : loops) n += lp.p.code.size();
  return n;
}

// ------------------------------------------------------------- public API

BytecodeEngine::BytecodeEngine(const ir::Kernel& kernel,
                               const KernelInfo& info)
    : impl_(std::make_unique<Impl>(kernel, info)) {}

BytecodeEngine::~BytecodeEngine() = default;

VmResult BytecodeEngine::run(std::vector<ScalarVal>& sharedScalars,
                             std::vector<ArrayValue*>& arrays, ad::Tape& tape,
                             const VmOptions& opts) {
  return impl_->run(sharedScalars, arrays, tape, opts);
}

std::string BytecodeEngine::disassemble() const { return impl_->disassemble(); }

size_t BytecodeEngine::instructionCount() const {
  return impl_->instructionCount();
}

}  // namespace formad::exec
