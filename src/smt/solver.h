// The solver facade — the stand-in for Z3 in this reproduction.
//
// Decides conjunctions of linear-integer (dis)equalities and (limited)
// inequalities over scalar variables and uninterpreted array reads, with a
// Z3-style assertion stack (push/pop). This is exactly the fragment
// FormAD's buildModel/testVar procedures emit (paper Sec. 5.5):
//
//     solver.add(i != i');            // distinct loop counters
//     solver.add(w'(k) != r(k));      // knowledge: disjoint primal indices
//     solver.push();
//     solver.add(e0' == e1);          // question: can adjoint indices meet?
//     if (solver.check() == Unsat)    // provably disjoint -> no atomic
//     solver.pop();
//
// Soundness contract: Unsat is only reported when the conjunction truly has
// no integer solution (rational Gaussian conflict, congruence conflict,
// gcd-infeasible row, or an entailed equality contradicting a disequality).
// Sat/Unknown may be over-approximate, which FormAD treats as "potentially
// conflicting" — the safe direction.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "smt/budget.h"
#include "smt/congruence.h"
#include "smt/fastpath.h"
#include "smt/fingerprint.h"
#include "smt/hnf.h"
#include "smt/lia.h"
#include "smt/term.h"

namespace formad::support {
class CancelToken;
}

namespace formad::smt {

class PersistentVerdictStore;

enum class CheckResult { Sat, Unsat, Unknown };

[[nodiscard]] std::string to_string(CheckResult r);

enum class Rel { Eq, Ne, Le };  // constraint: expr REL 0

struct Constraint {
  LinExpr expr;
  Rel rel = Rel::Eq;

  [[nodiscard]] static Constraint eq(LinExpr a, const LinExpr& b) {
    return Constraint{std::move(a) - b, Rel::Eq};
  }
  [[nodiscard]] static Constraint ne(LinExpr a, const LinExpr& b) {
    return Constraint{std::move(a) - b, Rel::Ne};
  }
  /// a <= b
  [[nodiscard]] static Constraint le(LinExpr a, const LinExpr& b) {
    return Constraint{std::move(a) - b, Rel::Le};
  }
};

/// A concrete integer assignment, one value per atom mentioned on the
/// assertion stack.
using Model = std::map<AtomId, long long>;

/// Deterministic fault-injection harness for the degradation paths (tests
/// and the CI smoke job). Counts every check() across all solvers it is
/// attached to and forces the Nth one (1-based) to either report a
/// budget-exhausted Unknown or to throw formad::Error — proving that a
/// solver giving up (or dying) degrades to atomic adjoints instead of
/// hanging or corrupting the analysis. 0 disables a trigger. The counter
/// is shared and atomic, so under a parallel analysis the faulting check
/// is scheduling-dependent — use width 1 where the test needs to know
/// exactly which conjunction faults.
struct FaultInject {
  std::atomic<long long> checksSeen{0};
  long long unknownAtCheck = 0;
  long long throwAtCheck = 0;
};

class Solver {
 public:
  explicit Solver(AtomTable& atoms);
  ~Solver();

  void add(Constraint c);
  void push();
  /// Drops the assertions added since the matching push(). Calling pop on
  /// an empty mark stack throws formad::Error (it would otherwise corrupt
  /// the assertion stack silently).
  void pop();

  /// Decides the current conjunction. The model is rebuilt from the
  /// assertion stack, but two layers of incrementality avoid repeated work
  /// across the many near-identical stacks FormAD's context-tree walk
  /// produces:
  ///   - the verdict store (attachStore) keyed on the stack's ContentKey
  ///     (conjunctions are order-independent), so re-checking an
  ///     already-decided conjunction is a map lookup;
  ///   - within one solve, each Ne constraint is reduced against the
  ///     equality system once and the residue reused by every later pass.
  /// Arithmetic overflow while deciding is Unknown, never Unsat.
  [[nodiscard]] CheckResult check();

  /// Attempts to build a concrete integer model of the current conjunction
  /// (the witness-extraction companion of check(), used by the race
  /// checker to turn a non-Unsat verdict into a human-readable
  /// counterexample). The model is assembled from the LIA equality
  /// solution: the HNF pass yields one particular integer solution plus a
  /// basis of the homogeneous solution lattice, and a bounded search over
  /// small lattice coordinates looks for a point that also satisfies every
  /// Ne and Le assertion. Every returned model is verified by exact
  /// evaluation of the full assertion stack. Returns nullopt when the
  /// conjunction is Unsat or no witness lies within the search budget
  /// (callers must treat that as "unknown", never as Unsat).
  ///
  /// Caveat: UF atoms are treated as free integer unknowns — functional
  /// consistency between distinct UF applications is NOT enforced, so a
  /// model involving UF atoms is a witness only under the caller's reading
  /// of those atoms (the race checker restricts witness claims to UF-free
  /// queries for exactly this reason).
  [[nodiscard]] std::optional<Model> model();

  /// Exact value of `e` under `m` (every atom of `e` must be assigned).
  [[nodiscard]] static Rational evaluate(const LinExpr& e, const Model& m);

  [[nodiscard]] size_t assertionCount() const { return stack_.size(); }

  struct Stats {
    long long assertionsAdded = 0;
    long long checks = 0;
    long long cacheHits = 0;       // checks answered from the verdict store
    long long fastpathTier0 = 0;   // checks decided by a tier-0 syntactic test
    long long fastpathTier1 = 0;   // checks decided by a tier-1 arithmetic test
    long long reduceCalls = 0;     // lia.reduce invocations actually made
    long long reduceMemoHits = 0;  // reductions reused from the per-solve memo
    long long modelSearches = 0;   // model() invocations
    long long modelsFound = 0;     // model() calls that produced a witness
    /// Checks that returned a budget-exhausted Unknown (including ones
    /// served from a cache entry recorded as exhausted, and injected
    /// faults). Appended to describe() only when nonzero, so default
    /// (unlimited) runs render byte-identically to the pre-budget format.
    long long budgetExhausted = 0;

    /// Stable one-line rendering of the tier breakdown plus the classic
    /// counters (golden-tested; reports and the CLI print it verbatim).
    [[nodiscard]] std::string describe() const;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Selects the tiered fast path consulted by check() before the full
  /// solve. Defaults to Off: a raw Solver is the pure-SMT baseline, and
  /// the analysis layers opt in explicitly (every fast-path verdict is
  /// exact, so only speed — never any verdict — depends on the mode).
  void setFastPathMode(FastPathMode m) { fastMode_ = m; }
  [[nodiscard]] FastPathMode fastPathMode() const { return fastMode_; }

  /// Per-check deterministic step budget (<= 0 = unlimited, the default).
  /// A check that runs out returns CheckResult::Unknown with
  /// lastCheckBudgetExhausted() set — the safe direction (FormAD keeps the
  /// atomic; the race checker reports the pair undecided). Steps are
  /// counted at fixed points of the decision procedures (pivot
  /// substitutions, congruence merges, HNF column ops, model-search
  /// candidates), so the verdict under a given budget is a pure function
  /// of the conjunction: byte-identical at any thread count. Survives
  /// reset(), like the store attachment.
  void setStepBudget(long long stepsPerCheck) { stepLimit_ = stepsPerCheck; }
  [[nodiscard]] long long stepBudget() const { return stepLimit_; }

  /// Attaches a cooperative cancellation token, polled every few hundred
  /// steps while solving. A fired token unwinds the in-flight check as
  /// support::Cancelled — a liveness mechanism only, never a verdict (see
  /// support/cancel.h). Pass nullptr to detach. Survives reset().
  void setCancelToken(const support::CancelToken* t) { cancel_ = t; }

  /// Attaches the shared fault-injection harness (nullptr = off).
  /// Survives reset().
  void setFaultInjection(FaultInject* f) { fault_ = f; }

  /// Attaches the abstract interpreter's per-variable facts (nullptr =
  /// off, the default). While attached with a nonzero salt, the tiered
  /// fast path additionally runs the "t1-absint" witness decider, and
  /// contentKey() carries the salt — verdicts (whose recorded tier
  /// depends on the deciders available) computed under different -absint
  /// settings can then never be served across settings, in memory or on
  /// disk. Survives reset().
  void setAbsintHints(const AbsintHints* hints) { hints_ = hints; }
  [[nodiscard]] const AbsintHints* absintHints() const { return hints_; }

  /// True iff the most recent check() gave up on its step budget (or was
  /// forced to by fault injection) — its Unknown is a resource verdict,
  /// not a structural one.
  [[nodiscard]] bool lastCheckBudgetExhausted() const {
    return lastBudgetExhausted_;
  }
  /// Deterministic step provenance of the most recent check(): the steps a
  /// fresh solve consumed, or — on a cache hit — the provenance recorded
  /// with the served entry (so callers persisting budget metadata see the
  /// same numbers whether the verdict was derived or served).
  [[nodiscard]] long long lastCheckSteps() const { return lastSteps_; }

  /// Decision tier of the most recent check(): 0/1 = fast path, 2 = full
  /// solve. Cache hits report the tier stored with the verdict, which is a
  /// pure function of the conjunction — so per-tier accounting is
  /// deterministic at any pool width.
  [[nodiscard]] int lastCheckTier() const { return lastTier_; }

  [[nodiscard]] AtomTable& atoms() { return atoms_; }

  /// Caches verdicts in `store` (shared with other solvers, schedulers and
  /// runs; it must outlive the solver). Keys intern through the store's
  /// interner, so a live stack is re-interned. Pass nullptr to go back to
  /// the solver's own memory-only store, created on first use.
  void attachStore(PersistentVerdictStore* store);

  /// Clears the assertion stack, open scopes, and the thread binding (so
  /// the solver may be adopted by another worker for the next task batch).
  /// Stats and the store attachment survive.
  void reset();

  /// ContentKey of the current conjunction (KeyKind::Check, carrying the
  /// absint salt). Covers the whole live stack including open push/pop
  /// scopes, so cached verdicts can never leak across scopes. O(stack):
  /// the digest sum and the canonical order are maintained by add/pop.
  [[nodiscard]] ContentKey contentKey() const;

 private:
  /// check() body on a cache miss: tiered fast path first, full solve as
  /// the fallback. Records the decision tier in lastTier_.
  [[nodiscard]] CheckResult decide();
  [[nodiscard]] CheckResult solve();
  /// The attached store, else the solver's own (created here on first use).
  [[nodiscard]] PersistentVerdictStore& verdictStore();
  /// model() body; runs under the armed step budget (StepLimitReached is
  /// caught by the wrapper and rendered as "no witness found").
  [[nodiscard]] std::optional<Model> modelImpl();
  /// Solvers are thread-confined: the first mutating call binds the owning
  /// thread, and any use from another thread throws. reset() clears the
  /// binding. This turns cross-thread sharing bugs into immediate errors
  /// instead of silent stack corruption.
  void requireOwner();

  AtomTable& atoms_;
  /// Content-key deriver over atoms_ (memoized per atom). Thread-confined
  /// with the solver; survives reset() like the memo it carries.
  Fingerprinter fp_{atoms_};
  std::vector<Constraint> stack_;
  /// Interned key of each stack_ entry, in stack order (add/pop/reset).
  std::vector<const InternedConstraint*> interned_;
  /// The same keys in canonical order, and their digest sum: contentKey()
  /// reads both without sorting or hashing the stack.
  std::vector<const InternedConstraint*> canonical_;
  ContentDigest sum_;
  std::vector<size_t> marks_;
  /// The verdict store check() caches in, and the one the solver owns
  /// while nothing is attached. Stack keys intern through store_.
  PersistentVerdictStore* store_ = nullptr;
  std::unique_ptr<PersistentVerdictStore> ownStore_;
  std::thread::id owner_{};
  FastPathMode fastMode_ = FastPathMode::Off;
  int lastTier_ = 2;
  long long stepLimit_ = 0;  // per-check; <= 0 = unlimited
  const support::CancelToken* cancel_ = nullptr;
  FaultInject* fault_ = nullptr;
  const AbsintHints* hints_ = nullptr;
  bool lastBudgetExhausted_ = false;
  long long lastSteps_ = 0;
  StepBudget budget_;  // re-armed per check()/model()
  Stats stats_;
};

}  // namespace formad::smt
