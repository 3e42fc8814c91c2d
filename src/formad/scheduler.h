// The exploitation query scheduler: parallel SMT with serial semantics.
//
// The paper's testVar walk (Sec. 5.5) is a depth-first traversal of the
// context tree on ONE solver: push knowledge, answer questions, recurse.
// Its verdicts per query are independent — only the *bookkeeping* (per-var
// early exit, the duplicate-pair cache, query/cache-hit counts, and the
// stop-at-first-contradiction safeguard) depends on traversal order. The
// scheduler exploits that split in three phases:
//
//   1. plan    — re-enumerate the serial walk WITHOUT a solver, emitting
//                one QueryTask per solver interaction the walk could
//                perform: a consistency check per knowledge assertion, and
//                one task per unique (context, pair) conjunction. Tasks
//                reference their base conjunction (root counter
//                disjointness + the knowledge on the context path) as a
//                node of a shared prefix tree rather than by copy, so
//                consecutive tasks share long context prefixes by
//                construction.
//   2. evaluate — run the tasks speculatively across the worker pool, one
//                thread-confined smt::Solver per worker, all sharing one
//                verdict store. Tasks are grouped into
//                contiguous prefix-sharing batches of the canonical plan
//                order: a worker walks from one task's base to the next by
//                popping to their common ancestor and pushing the delta
//                (incremental push/pop), instead of reset-per-task. With
//                one worker, evaluation is instead lazy — tasks run on
//                demand during replay over one persistent incremental
//                trail, which reproduces the serial walk's exact work
//                profile.
//   3. replay  — re-walk the canonical serial schedule consuming task
//                results, reconstructing the verdicts, the per-var early
//                exits, the pair cache hits, the query/solver-cache-hit
//                counts, and the per-tier decision counts exactly as the
//                single-solver walk would have produced them. Replay
//                touches no solver, so the resulting RegionVerdict — and
//                every report rendered from it — is bit-identical at any
//                thread count and at any fast-path mode (fast verdicts are
//                exact; only the tier counters reflect the mode).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "formad/exploit.h"
#include "formad/knowledge.h"
#include "smt/fingerprint.h"

namespace formad::support {
class CancelToken;
class TaskPool;
}

namespace formad::core {

/// One independent solver interaction of the exploitation walk.
struct QueryTask {
  enum class Kind {
    Consistency,  // is the base conjunction itself Unsat? (safeguard)
    Pair,         // can any probe prove the pair disjoint?
  };
  Kind kind = Kind::Pair;
  /// Node in the scheduler's base prefix tree identifying this task's base
  /// conjunction (the root counter assertion plus the knowledge visible on
  /// the context path; for Consistency, up to and including the assertion
  /// under test). -1 = the empty conjunction (never emitted).
  int baseId = -1;
  /// Pair only: equalities tried in order — flattened offsets first, then
  /// one per dimension — stopping at the first Unsat (paper Sec. 3
  /// dimension rule).
  std::vector<smt::Constraint> probes;
  /// Content digest of each probe (smt/fingerprint.h), parallel to
  /// `probes` — derived once at plan time and used by replay accounting.
  std::vector<smt::ContentDigest> probeDigests;
  /// The task's key in the persistent store (kind, absint salt, base
  /// conjunction, ordered probes), built from the store's interner at plan
  /// time. Left empty when no store is attached.
  smt::ContentKey key;
};

/// Outcome of evaluating one QueryTask.
struct QueryResult {
  bool evaluated = false;
  bool unsat = false;     // Consistency: base conjunction proven Unsat
  bool pairSafe = false;  // Pair: some probe proved disjointness
  /// Number of solver checks performed (1 for Consistency; for Pair, one
  /// per probe tried before the first Unsat). Replay uses this to account
  /// queries exactly as the serial walk would.
  int checksPerformed = 0;
  /// Decision tier of each performed check (0/1 fast path, 2 full solve) —
  /// a pure function of the conjunction, hence identical at any width.
  std::vector<int> tiers;
  /// Parallel to tiers: whether each check returned a budget-exhausted
  /// Unknown. Under a fixed step budget this too is a pure function of the
  /// conjunction (steps are counted, never timed).
  std::vector<char> exhausted;
  /// Parallel to tiers: deterministic step provenance of each check (steps
  /// a complete verdict consumed, or the limit an exhausted one ran out
  /// at). Persisted with the task so VerdictEntry::sufficientFor can
  /// govern whether a later run may splice the record.
  std::vector<long long> stepsUsed;
  double seconds = 0.0;  // wall time of this task (scaling diagnostics)
};

class QueryScheduler {
 public:
  QueryScheduler(const RegionModel& model, const ExploitOptions& opts);

  [[nodiscard]] const std::vector<QueryTask>& tasks() const { return tasks_; }

  /// The constraints of task base `baseId` (leaf first) — what a task key
  /// is derived from, for checking keys against a from-scratch derivation.
  [[nodiscard]] std::vector<smt::Constraint> baseConjunction(int baseId) const;

  /// Evaluates the plan and replays the canonical schedule. `pool` may be
  /// null (serial). The returned verdict is bit-identical regardless of
  /// pool width; only analysisSeconds/planSeconds/taskSeconds/threadsUsed
  /// (wall-clock observables) vary. `cancel`, when non-null, is the
  /// region's cooperative cancellation token: tasks it stops before they
  /// evaluate degrade to unsafe pairs in replay (which pairs depends on
  /// timing — cancellation trades reproducibility for liveness).
  [[nodiscard]] RegionVerdict run(support::TaskPool* pool,
                                  support::CancelToken* cancel = nullptr);

 private:
  /// One node of the base prefix tree: the conjunction consisting of the
  /// parent's conjunction plus `delta`. The DFS plan appends nodes as it
  /// pushes knowledge, so a task's base is the root-to-node path — and
  /// sibling tasks share their context prefix structurally.
  struct BaseNode {
    int parent = -1;
    smt::Constraint delta;
    /// Interned key of delta (store attached only; else null).
    const smt::InternedConstraint* deltaKey = nullptr;
    size_t depth = 0;  // constraints on the root-to-node path
    /// Order-independent 128-bit digest of the root-to-node conjunction:
    /// the per-constraint digests SUMMED along the path (a conjunction is a
    /// multiset, and wrapping sums commute), so each node derives it from
    /// its parent in O(1). Replay identifies base content by (sum, depth),
    /// and task keys fold it into their digest.
    smt::ContentDigest sum;
  };

  // One step of the canonical serial schedule (DFS pre-order).
  struct Step {
    enum class Op { Consistency, Question };
    Op op = Op::Question;
    int taskIndex = -1;
    // Consistency: provenance for the contradiction diagnostic.
    std::string array;
    // Question: which var the pair belongs to, and the serial walk's
    // duplicate-pair cache key.
    size_t varIndex = 0;
    const QuestionPair* pair = nullptr;
    std::string pairKey;
  };

  void plan();
  /// Moves `solver` (whose stack holds the base of `cur`, one push scope
  /// per base constraint) to the base of `target` incrementally: pop to
  /// the common ancestor, then push the missing deltas. `cur` is updated.
  void switchBase(smt::Solver& solver, int& cur, int target) const;
  /// Evaluates one task on a solver holding the base of `cur` (updated).
  [[nodiscard]] QueryResult evaluate(smt::Solver& solver, int& cur,
                                     const QueryTask& task) const;
  /// Replays the canonical schedule; `getResult` supplies task outcomes —
  /// precomputed in the eager (parallel) mode, evaluated on demand in the
  /// lazy (single-worker) mode.
  [[nodiscard]] RegionVerdict replay(
      const std::function<const QueryResult&(int)>& getResult) const;

  const RegionModel& model_;
  const ExploitOptions& opts_;
  std::vector<BaseNode> bases_;
  std::vector<QueryTask> tasks_;
  std::vector<Step> schedule_;
  double planSeconds_ = 0.0;
};

}  // namespace formad::core
