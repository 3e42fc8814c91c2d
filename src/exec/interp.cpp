#include "exec/interp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "exec/bytecode.h"
#include "exec/kernel_info.h"

namespace formad::exec {

using namespace formad::ir;

// ---------------------------------------------------------------- Inputs

void Inputs::bindInt(const std::string& name, long long v) {
  scalars_[name].i = v;
}
void Inputs::bindReal(const std::string& name, double v) {
  scalars_[name].r = v;
}
ArrayValue& Inputs::bindArray(const std::string& name, ArrayValue a) {
  return arrays_[name] = std::move(a);
}
ArrayValue& Inputs::array(const std::string& name) {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) fail("no array bound for '" + name + "'");
  return it->second;
}
const ArrayValue& Inputs::array(const std::string& name) const {
  auto it = arrays_.find(name);
  if (it == arrays_.end()) fail("no array bound for '" + name + "'");
  return it->second;
}
double Inputs::real(const std::string& name) const {
  auto it = scalars_.find(name);
  if (it == scalars_.end()) fail("no scalar bound for '" + name + "'");
  return it->second.r;
}
long long Inputs::intVal(const std::string& name) const {
  auto it = scalars_.find(name);
  if (it == scalars_.end()) fail("no scalar bound for '" + name + "'");
  return it->second.i;
}
bool Inputs::has(const std::string& name) const {
  return scalars_.count(name) > 0 || arrays_.count(name) > 0;
}

// -------------------------------------------------------------- RaceLog

std::string RaceLog::describe() const {
  if (!any()) return "no cross-iteration conflicts observed\n";
  std::string out;
  for (const auto& e : events) {
    out += e.writeWrite ? "write/write" : "read/write";
    out += " conflict on ";
    out += e.var;
    if (!e.scalar) {
      out += "[";
      out += std::to_string(e.element);
      out += "]";
    }
    out += " between iterations ";
    out += std::to_string(e.iterA);
    out += " and ";
    out += std::to_string(e.iterB);
    out += "\n";
  }
  if (dropped > 0) {
    out += "... and ";
    out += std::to_string(dropped);
    out += " more conflicts\n";
  }
  return out;
}

// ------------------------------------------------------------- Executor

namespace {

struct Value {
  enum class Tag { R, I, B } tag = Tag::R;
  double r = 0.0;
  long long i = 0;
  bool b = false;

  [[nodiscard]] double asReal() const {
    return tag == Tag::I ? static_cast<double>(i) : r;
  }
  [[nodiscard]] long long asInt() const {
    FORMAD_ASSERT(tag == Tag::I, "expected int value");
    return i;
  }
  [[nodiscard]] bool asBool() const {
    FORMAD_ASSERT(tag == Tag::B, "expected bool value");
    return b;
  }
  static Value real(double v) { return Value{Tag::R, v, 0, false}; }
  static Value integer(long long v) { return Value{Tag::I, 0.0, v, false}; }
  static Value boolean(bool v) { return Value{Tag::B, 0.0, 0, v}; }
};

}  // namespace

class Executor::Impl {
 public:
  Impl(Kernel& kernel) : kernel_(kernel), info_(buildKernelInfo(kernel)) {}

  ExecStats run(Inputs& io, const ExecOptions& opts) {
    if (opts.engine == ExecEngine::TreeWalk && opts.mode == ExecMode::OpenMP)
      fail("the tree-walking engine runs serially only; use the bytecode "
           "engine for OpenMP execution");
    stats_ = ExecStats{};
    profileMode_ = opts.mode == ExecMode::Profile;
    raceMode_ = opts.logRaces;
    raceActive_ = false;

    // Bind parameters.
    shScalars_.assign(static_cast<size_t>(info_.scalarCount), ScalarVal{});
    arrays_.assign(static_cast<size_t>(info_.arrayCount), nullptr);
    for (const auto& p : kernel_.params) {
      if (p.type.isArray()) {
        ArrayValue& a = io.array(p.name);
        if (a.elem() != p.type.scalar || a.rank() != p.type.rank)
          fail("array bound to '" + p.name + "' has wrong type/rank");
        arrays_[static_cast<size_t>(info_.arraySlot.at(p.name))] = &a;
      } else {
        if (!io.has(p.name)) {
          if (p.intent == Intent::Out) continue;  // produced by the kernel
          fail("parameter '" + p.name + "' not bound");
        }
        ScalarVal& s =
            shScalars_[static_cast<size_t>(info_.scalarSlot.at(p.name))];
        if (p.type.isInt())
          s.i = io.intVal(p.name);
        else if (p.type.isReal())
          s.r = io.real(p.name);
      }
    }

    tape_.clear();
    tapePeak_ = 0;

    // Race logging needs per-access visibility: force the serial tree-walk.
    if (opts.engine == ExecEngine::Bytecode && !opts.logRaces) {
      // Compiled lazily, once per kernel; reused across runs.
      if (!bc_) bc_ = std::make_unique<BytecodeEngine>(kernel_, info_);
      VmOptions vo;
      vo.openmp = opts.mode == ExecMode::OpenMP;
      vo.numThreads = opts.numThreads;
      vo.profile = profileMode_;
      VmResult vr = bc_->run(shScalars_, arrays_, tape_, vo);
      stats_.profile = std::move(vr.profile);
      tapePeak_ = vr.tapePeakBytes;
    } else {
      Ctx ctx;
      ctx.frame.assign(static_cast<size_t>(info_.scalarCount), ScalarVal{});
      ctx.lane = &tape_.mainLane();
      if (profileMode_) ctx.counts = &stats_.profile.serial;
      execBody(kernel_.body, ctx);
    }

    // Write scalar out-parameters back.
    for (const auto& p : kernel_.params) {
      if (p.type.isArray() || p.intent == Intent::In) continue;
      const ScalarVal& s =
          shScalars_[static_cast<size_t>(info_.scalarSlot.at(p.name))];
      if (p.type.isInt())
        io.bindInt(p.name, s.i);
      else
        io.bindReal(p.name, s.r);
    }

    stats_.tapePeakBytes = tapePeak_;
    stats_.tapeDrained = tape_.drained();
    return std::move(stats_);
  }

 private:
  Kernel& kernel_;
  KernelInfo info_;  // shared static tables (kernel_info.h)
  std::unique_ptr<BytecodeEngine> bc_;  // compiled lazily on first use

  // Run state.
  ExecStats stats_;
  bool profileMode_ = false;
  std::vector<ScalarVal> shScalars_;
  std::vector<ArrayValue*> arrays_;
  ad::Tape tape_;
  size_t tapePeak_ = 0;

  // ----- dynamic race oracle (ExecOptions::logRaces) -----
  //
  // While a parallel loop runs (serially — logging forces the serial
  // tree-walk), every touch of shared storage is recorded per location.
  // Two distinct iterations touching the same location with at least one
  // unprotected write yields one RaceEvent per location and kind.
  // Atomic-guarded accesses are treated as synchronized and
  // reduction-guarded accesses as privatized; neither is logged.

  struct RaceLoc {
    static constexpr long long kNone = std::numeric_limits<long long>::min();
    long long firstWrite = kNone;  // loop counter of the first writing iter
    long long firstRead = kNone;   // loop counter of the first reading iter
    bool reportedWW = false;
    bool reportedRW = false;
  };
  static constexpr long long kMaxRaceEvents = 64;

  bool raceMode_ = false;    // this run logs races
  bool raceActive_ = false;  // currently inside a logged parallel loop
  long long raceIter_ = 0;   // loop counter value of the current iteration
  std::map<std::pair<int, long long>, RaceLoc> raceArrayLocs_;
  std::map<int, RaceLoc> raceScalarLocs_;

  [[nodiscard]] std::string slotName(const std::map<std::string, int>& m,
                                     int slot) const {
    for (const auto& [name, s] : m)
      if (s == slot) return name;
    return "?";
  }

  void raceEmit(const std::string& var, long long elem, long long otherIter,
                bool writeWrite, bool scalar) {
    RaceLog& lg = stats_.raceLog;
    if (static_cast<long long>(lg.events.size()) >= kMaxRaceEvents) {
      ++lg.dropped;
      return;
    }
    RaceEvent ev;
    ev.var = var;
    ev.element = elem;
    ev.iterA = otherIter;
    ev.iterB = raceIter_;
    ev.writeWrite = writeWrite;
    ev.scalar = scalar;
    lg.events.push_back(std::move(ev));
  }

  void raceNoteRead(RaceLoc& loc, const std::string& var, long long elem,
                    bool scalar) {
    if (loc.firstWrite != RaceLoc::kNone && loc.firstWrite != raceIter_ &&
        !loc.reportedRW) {
      loc.reportedRW = true;
      raceEmit(var, elem, loc.firstWrite, /*writeWrite=*/false, scalar);
    }
    if (loc.firstRead == RaceLoc::kNone) loc.firstRead = raceIter_;
  }

  void raceNoteWrite(RaceLoc& loc, const std::string& var, long long elem,
                     bool scalar) {
    if (loc.firstWrite != RaceLoc::kNone && loc.firstWrite != raceIter_ &&
        !loc.reportedWW) {
      loc.reportedWW = true;
      raceEmit(var, elem, loc.firstWrite, /*writeWrite=*/true, scalar);
    }
    if (loc.firstRead != RaceLoc::kNone && loc.firstRead != raceIter_ &&
        !loc.reportedRW) {
      loc.reportedRW = true;
      raceEmit(var, elem, loc.firstRead, /*writeWrite=*/false, scalar);
    }
    if (loc.firstWrite == RaceLoc::kNone) loc.firstWrite = raceIter_;
  }

  void raceArrayRead(int slot, long long flat) {
    RaceLoc& loc = raceArrayLocs_[{slot, flat}];
    raceNoteRead(loc, slotName(info_.arraySlot, slot), flat, false);
  }
  void raceArrayWrite(int slot, long long flat) {
    RaceLoc& loc = raceArrayLocs_[{slot, flat}];
    raceNoteWrite(loc, slotName(info_.arraySlot, slot), flat, false);
  }
  void raceScalarRead(int slot) {
    raceNoteRead(raceScalarLocs_[slot], slotName(info_.scalarSlot, slot), 0,
                 true);
  }
  void raceScalarWrite(int slot) {
    raceNoteWrite(raceScalarLocs_[slot], slotName(info_.scalarSlot, slot), 0,
                  true);
  }

  struct Ctx {
    std::vector<ScalarVal> frame;          // thread-private slots
    const std::vector<bool>* privMask = nullptr;
    ad::TapeLane* lane = nullptr;
    std::vector<ArrayValue>* arrShadows = nullptr;
    std::vector<double>* sclShadows = nullptr;
    const LoopInfo* loop = nullptr;
    OpCounts* counts = nullptr;
    bool inParallel = false;
  };

  // ----- scalar access -----

  ScalarVal& scalarRef(Ctx& c, int slot) {
    if (c.inParallel && (*c.privMask)[static_cast<size_t>(slot)])
      return c.frame[static_cast<size_t>(slot)];
    return shScalars_[static_cast<size_t>(slot)];
  }

  /// A scalar slot is shared (worth race-logging) unless the running loop
  /// privatizes it (counter, private clause, locals).
  [[nodiscard]] static bool raceSharedScalar(const Ctx& c, int slot) {
    return !(c.inParallel && (*c.privMask)[static_cast<size_t>(slot)]);
  }

  // ----- expression evaluation -----

  long long evalInt(const Expr& e, Ctx& c) { return eval(e, c).asInt(); }
  double evalReal(const Expr& e, Ctx& c) { return eval(e, c).asReal(); }
  bool evalBool(const Expr& e, Ctx& c) { return eval(e, c).asBool(); }

  long long arrayFlat(const ArrayRef& a, Ctx& c, ArrayValue*& arr) {
    arr = arrays_[static_cast<size_t>(a.slot)];
    FORMAD_ASSERT(arr != nullptr, "array not bound");
    long long idx[3];
    int n = static_cast<int>(a.indices.size());
    for (int k = 0; k < n; ++k) idx[k] = evalInt(*a.indices[k], c);
    return arr->linearize(idx, n);
  }

  void countArrayAccess(const ArrayRef& a, Ctx& c) {
    if (c.counts == nullptr) return;
    const AccessClass& cls = info_.accessClass.at(&a);
    if (!cls.anyTainted) {
      c.counts->seqBytes += 8;
      return;
    }
    // Span of the data-dependent portion: the product of the tainted
    // dimensions' extents (affine dimensions are streamed over).
    ArrayValue* arr = arrays_[static_cast<size_t>(a.slot)];
    double span = 8.0;
    for (int k = 0; k < arr->rank(); ++k)
      if (cls.dimTainted[static_cast<size_t>(k)])
        span *= static_cast<double>(arr->dim(k));
    if (span >= kCacheResidentBytes)
      c.counts->randBytes += 8;
    else
      c.counts->seqBytes += 8;
  }

  Value eval(const Expr& e, Ctx& c) {
    switch (e.kind()) {
      case ExprKind::IntLit:
        return Value::integer(static_cast<const IntLit&>(e).value);
      case ExprKind::RealLit:
        return Value::real(static_cast<const RealLit&>(e).value);
      case ExprKind::BoolLit:
        return Value::boolean(static_cast<const BoolLit&>(e).value);
      case ExprKind::VarRef: {
        const auto& v = static_cast<const VarRef&>(e);
        if (raceActive_ && raceSharedScalar(c, v.slot)) raceScalarRead(v.slot);
        const ScalarVal& s = scalarRef(c, v.slot);
        switch (info_.scalarType[static_cast<size_t>(v.slot)]) {
          case Scalar::Int: return Value::integer(s.i);
          case Scalar::Real: {
            double val = s.r;
            if (c.sclShadows != nullptr) {
              auto it = c.loop->shadowOfScalar.find(v.slot);
              if (it != c.loop->shadowOfScalar.end())
                val += (*c.sclShadows)[static_cast<size_t>(it->second)];
            }
            return Value::real(val);
          }
          case Scalar::Bool: return Value::boolean(s.b);
        }
        FORMAD_ASSERT(false, "bad scalar type");
        return Value::real(0.0);  // unreachable
      }
      case ExprKind::ArrayRef: {
        const auto& a = static_cast<const ArrayRef&>(e);
        ArrayValue* arr = nullptr;
        long long flat = arrayFlat(a, c, arr);
        if (raceActive_) raceArrayRead(a.slot, flat);
        countArrayAccess(a, c);
        if (arr->elem() == Scalar::Real) {
          double v = arr->realAt(flat);
          // A privatized (reduction) array reads through its own shadow:
          // the thread must observe its own pending increments.
          if (c.arrShadows != nullptr) {
            auto it = c.loop->shadowOfArray.find(a.slot);
            if (it != c.loop->shadowOfArray.end())
              v += (*c.arrShadows)[static_cast<size_t>(it->second)].realAt(flat);
          }
          return Value::real(v);
        }
        return Value::integer(arr->intAt(flat));
      }
      case ExprKind::Unary: {
        const auto& u = static_cast<const Unary&>(e);
        Value v = eval(*u.operand, c);
        if (u.op == UnOp::Not) return Value::boolean(!v.asBool());
        if (v.tag == Value::Tag::I) return Value::integer(-v.i);
        if (c.counts) c.counts->flops += 1;
        return Value::real(-v.asReal());
      }
      case ExprKind::Binary:
        return evalBinary(static_cast<const Binary&>(e), c);
      case ExprKind::Call:
        return evalCall(static_cast<const Call&>(e), c);
    }
    FORMAD_ASSERT(false, "bad expression kind");
  }

  Value evalBinary(const Binary& b, Ctx& c) {
    if (b.op == BinOp::And) {
      return Value::boolean(evalBool(*b.lhs, c) && evalBool(*b.rhs, c));
    }
    if (b.op == BinOp::Or) {
      return Value::boolean(evalBool(*b.lhs, c) || evalBool(*b.rhs, c));
    }
    Value l = eval(*b.lhs, c);
    Value r = eval(*b.rhs, c);
    bool intOp = l.tag == Value::Tag::I && r.tag == Value::Tag::I;
    if (isComparison(b.op)) {
      if (c.counts) c.counts->intops += 1;
      if (intOp) {
        long long x = l.i, y = r.i;
        switch (b.op) {
          case BinOp::Lt: return Value::boolean(x < y);
          case BinOp::Le: return Value::boolean(x <= y);
          case BinOp::Gt: return Value::boolean(x > y);
          case BinOp::Ge: return Value::boolean(x >= y);
          case BinOp::Eq: return Value::boolean(x == y);
          case BinOp::Ne: return Value::boolean(x != y);
          default: break;
        }
      }
      double x = l.asReal(), y = r.asReal();
      switch (b.op) {
        case BinOp::Lt: return Value::boolean(x < y);
        case BinOp::Le: return Value::boolean(x <= y);
        case BinOp::Gt: return Value::boolean(x > y);
        case BinOp::Ge: return Value::boolean(x >= y);
        case BinOp::Eq: return Value::boolean(x == y);
        case BinOp::Ne: return Value::boolean(x != y);
        default: break;
      }
    }
    if (intOp) {
      if (c.counts) c.counts->intops += 1;
      long long x = l.i, y = r.i;
      switch (b.op) {
        case BinOp::Add: return Value::integer(x + y);
        case BinOp::Sub: return Value::integer(x - y);
        case BinOp::Mul: return Value::integer(x * y);
        case BinOp::Div:
          if (y == 0) fail("integer division by zero");
          return Value::integer(x / y);
        case BinOp::Mod:
          if (y == 0) fail("integer modulo by zero");
          return Value::integer(x % y);
        default: break;
      }
    }
    if (c.counts) c.counts->flops += 1;
    double x = l.asReal(), y = r.asReal();
    switch (b.op) {
      case BinOp::Add: return Value::real(x + y);
      case BinOp::Sub: return Value::real(x - y);
      case BinOp::Mul: return Value::real(x * y);
      case BinOp::Div: return Value::real(x / y);
      default: break;
    }
    FORMAD_ASSERT(false, "bad binary operator");
  }

  Value evalCall(const Call& call, Ctx& c) {
    double a0 = evalReal(*call.args[0], c);
    if (c.counts) c.counts->flops += kCallFlops;
    switch (call.fn) {
      case Intrinsic::Sin: return Value::real(std::sin(a0));
      case Intrinsic::Cos: return Value::real(std::cos(a0));
      case Intrinsic::Tan: return Value::real(std::tan(a0));
      case Intrinsic::Exp: return Value::real(std::exp(a0));
      case Intrinsic::Log: return Value::real(std::log(a0));
      case Intrinsic::Sqrt: return Value::real(std::sqrt(a0));
      case Intrinsic::Abs: return Value::real(std::fabs(a0));
      case Intrinsic::Tanh: return Value::real(std::tanh(a0));
      case Intrinsic::Min:
        return Value::real(std::min(a0, evalReal(*call.args[1], c)));
      case Intrinsic::Max:
        return Value::real(std::max(a0, evalReal(*call.args[1], c)));
      case Intrinsic::Pow:
        return Value::real(std::pow(a0, evalReal(*call.args[1], c)));
    }
    FORMAD_ASSERT(false, "bad intrinsic");
  }

  // ----- statement execution -----

  void execBody(const StmtList& body, Ctx& c) {
    for (const auto& s : body) exec(*s, c);
  }

  void exec(const Stmt& s, Ctx& c) {
    switch (s.kind()) {
      case StmtKind::Assign:
        execAssign(static_cast<const Assign&>(s), c);
        return;
      case StmtKind::DeclLocal: {
        const auto& d = static_cast<const DeclLocal&>(s);
        int slot = info_.scalarSlot.at(d.name);
        ScalarVal& sv = scalarRef(c, slot);
        if (d.init) {
          Value v = eval(*d.init, c);
          switch (d.type.scalar) {
            case Scalar::Int: sv.i = v.asInt(); break;
            case Scalar::Real: sv.r = v.asReal(); break;
            case Scalar::Bool: sv.b = v.asBool(); break;
          }
        }
        return;
      }
      case StmtKind::If: {
        const auto& i = static_cast<const If&>(s);
        if (evalBool(*i.cond, c))
          execBody(i.thenBody, c);
        else
          execBody(i.elseBody, c);
        return;
      }
      case StmtKind::Push: {
        const auto& p = static_cast<const Push&>(s);
        if (c.counts) c.counts->tapeBytes += 8;
        switch (p.channel) {
          case TapeChannel::Real: c.lane->pushReal(evalReal(*p.value, c)); break;
          case TapeChannel::Int: c.lane->pushInt(evalInt(*p.value, c)); break;
          case TapeChannel::Bool: c.lane->pushBool(evalBool(*p.value, c)); break;
        }
        return;
      }
      case StmtKind::Pop: {
        const auto& p = static_cast<const Pop&>(s);
        if (c.counts) c.counts->tapeBytes += 8;
        ScalarVal& sv = scalarRef(c, info_.scalarSlot.at(p.target));
        switch (p.channel) {
          case TapeChannel::Real: sv.r = c.lane->popReal(); break;
          case TapeChannel::Int: sv.i = c.lane->popInt(); break;
          case TapeChannel::Bool: sv.b = c.lane->popBool(); break;
        }
        return;
      }
      case StmtKind::For: {
        const auto& f = static_cast<const For&>(s);
        if (f.parallel)
          execParallelFor(f, c);
        else
          execSerialFor(f, c);
        return;
      }
    }
  }

  void execAssign(const Assign& a, Ctx& c) {
    const AssignInfo& info = info_.assignInfo.at(&a);

    if (a.guard != Guard::None) {
      FORMAD_ASSERT(info.isIncrement, "guarded statement is not an increment");
      double v = evalReal(*info.addend, c);
      if (info.negated) v = -v;
      if (c.counts) {
        c.counts->flops += 1;
        if (a.guard == Guard::Atomic) c.counts->atomicOps += 1;
      }
      if (a.lhs->kind() == ExprKind::ArrayRef) {
        const auto& ar = static_cast<const ArrayRef&>(*a.lhs);
        ArrayValue* arr = nullptr;
        long long flat = arrayFlat(ar, c, arr);
        countArrayAccess(ar, c);  // read of the increment target...
        countArrayAccess(ar, c);  // ...and the store (RMW, like unguarded)
        if (a.guard == Guard::Reduction && c.arrShadows != nullptr) {
          int sh = c.loop->shadowOfArray.at(ar.slot);
          (*c.arrShadows)[static_cast<size_t>(sh)].realAt(flat) += v;
        } else {
          arr->realAt(flat) += v;
        }
      } else {
        const auto& vr = static_cast<const VarRef&>(*a.lhs);
        if (a.guard == Guard::Reduction && c.sclShadows != nullptr) {
          int sh = c.loop->shadowOfScalar.at(vr.slot);
          (*c.sclShadows)[static_cast<size_t>(sh)] += v;
        } else {
          scalarRef(c, vr.slot).r += v;
        }
      }
      return;
    }

    Value v = eval(*a.rhs, c);
    if (a.lhs->kind() == ExprKind::ArrayRef) {
      const auto& ar = static_cast<const ArrayRef&>(*a.lhs);
      ArrayValue* arr = nullptr;
      long long flat = arrayFlat(ar, c, arr);
      if (raceActive_) raceArrayWrite(ar.slot, flat);
      countArrayAccess(ar, c);
      if (arr->elem() == Scalar::Real) {
        arr->realAt(flat) = v.asReal();
        // Overwriting an element of a privatized array supersedes the
        // thread's pending increments for it.
        if (c.arrShadows != nullptr) {
          auto it = c.loop->shadowOfArray.find(ar.slot);
          if (it != c.loop->shadowOfArray.end())
            (*c.arrShadows)[static_cast<size_t>(it->second)].realAt(flat) = 0.0;
        }
      } else {
        arr->intAt(flat) = v.asInt();
      }
    } else {
      const auto& vr = static_cast<const VarRef&>(*a.lhs);
      if (raceActive_ && raceSharedScalar(c, vr.slot)) raceScalarWrite(vr.slot);
      ScalarVal& sv = scalarRef(c, vr.slot);
      switch (info_.scalarType[static_cast<size_t>(vr.slot)]) {
        case Scalar::Int: sv.i = v.asInt(); break;
        case Scalar::Real:
          sv.r = v.asReal();
          if (c.sclShadows != nullptr) {
            auto it = c.loop->shadowOfScalar.find(vr.slot);
            if (it != c.loop->shadowOfScalar.end())
              (*c.sclShadows)[static_cast<size_t>(it->second)] = 0.0;
          }
          break;
        case Scalar::Bool: sv.b = v.asBool(); break;
      }
    }
  }

  struct Range {
    long long lo = 0, hi = -1, step = 1, count = 0;
  };

  Range evalRange(const For& f, Ctx& c) {
    Range r;
    r.lo = evalInt(*f.lo, c);
    r.hi = evalInt(*f.hi, c);
    r.step = evalInt(*f.step, c);
    if (r.step <= 0) fail("loop step must be positive", f.loc());
    r.count = r.hi >= r.lo ? (r.hi - r.lo) / r.step + 1 : 0;
    return r;
  }

  void execSerialFor(const For& f, Ctx& c) {
    Range r = evalRange(f, c);
    int slot = info_.scalarSlot.at(f.var);
    if (f.reversed) {
      for (long long k = r.count - 1; k >= 0; --k) {
        scalarRef(c, slot).i = r.lo + k * r.step;
        execBody(f.body, c);
      }
    } else {
      for (long long k = 0; k < r.count; ++k) {
        scalarRef(c, slot).i = r.lo + k * r.step;
        execBody(f.body, c);
      }
    }
  }

  void execParallelFor(const For& f, Ctx& c) {
    Range r = evalRange(f, c);
    const LoopInfo& li = info_.loopInfo.at(&f);
    int counterSlot = info_.scalarSlot.at(f.var);

    ad::LaneBlock* block = nullptr;
    if (f.usesTape) {
      block = f.reversed ? &tape_.backBlock()
                         : &tape_.pushBlock(r.lo, r.step,
                                            static_cast<size_t>(r.count));
    }

    LoopProfile* lp = nullptr;
    if (profileMode_) {
      stats_.profile.loops.emplace_back();
      lp = &stats_.profile.loops.back();
      lp->loop = &f;
      lp->dynamicSchedule = f.sched == Schedule::Dynamic;
      lp->perIteration.resize(static_cast<size_t>(r.count));
      for (int slot2 : li.redArraySlots)
        lp->reductionBytes +=
            static_cast<double>(arrays_[static_cast<size_t>(slot2)]->bytes());
      lp->reductionBytes += 8.0 * static_cast<double>(li.redScalarSlots.size());
    }

    // A logged parallel loop nested in another logged loop keeps the
    // outer loop's iteration identity (conflicts within the inner loop
    // are still cross-iteration conflicts of the outer region).
    const bool raceTop = raceMode_ && !raceActive_;
    if (raceTop) {
      raceArrayLocs_.clear();
      raceScalarLocs_.clear();
      raceActive_ = true;
    }
    Ctx tc;
    tc.frame.assign(static_cast<size_t>(info_.scalarCount), ScalarVal{});
    tc.privMask = &li.privMask;
    tc.loop = &li;
    tc.inParallel = true;
    // Reduction guards accumulate into zeroed shadow copies, merged into
    // the shared storage after the loop.
    std::vector<ArrayValue> arrSh;
    for (int slot2 : li.redArraySlots) {
      const ArrayValue& src = *arrays_[static_cast<size_t>(slot2)];
      std::vector<long long> dims;
      for (int k = 0; k < src.rank(); ++k) dims.push_back(src.dim(k));
      arrSh.push_back(ArrayValue::reals(std::move(dims)));
    }
    std::vector<double> sclSh(li.redScalarSlots.size(), 0.0);
    tc.arrShadows = &arrSh;
    tc.sclShadows = &sclSh;
    OpCounts iterCounts;
    if (profileMode_) tc.counts = &iterCounts;
    for (long long k = 0; k < r.count; ++k) {
      long long iter = r.lo + k * r.step;
      if (raceTop) raceIter_ = iter;
      tc.frame[static_cast<size_t>(counterSlot)].i = iter;
      tc.lane = block ? &block->lane(iter) : nullptr;
      if (profileMode_) iterCounts = OpCounts{};
      execBody(f.body, tc);
      if (profileMode_) lp->perIteration[static_cast<size_t>(k)] = iterCounts;
    }
    for (size_t j = 0; j < li.redArraySlots.size(); ++j) {
      ArrayValue& dst = *arrays_[static_cast<size_t>(li.redArraySlots[j])];
      const auto& src = arrSh[j].realData();
      for (size_t e = 0; e < src.size(); ++e) dst.realData()[e] += src[e];
    }
    for (size_t j = 0; j < li.redScalarSlots.size(); ++j)
      shScalars_[static_cast<size_t>(li.redScalarSlots[j])].r += sclSh[j];
    if (raceTop) raceActive_ = false;

    tapePeak_ = std::max(tapePeak_, tape_.bytes());
    if (f.usesTape && f.reversed) tape_.popBlock();
  }
};

Executor::Executor(const Kernel& kernel) : kernel_(kernel.clone()) {
  impl_ = std::make_unique<Impl>(*kernel_);
}

Executor::~Executor() = default;

ExecStats Executor::run(Inputs& io, const ExecOptions& opts) {
  return impl_->run(io, opts);
}

}  // namespace formad::exec
