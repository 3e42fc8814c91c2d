// The verdict store: the one cache of solver verdicts and scheduler task
// outcomes, in memory and optionally on disk (the `-cache-dir` layer).
//
// Holds two record kinds, both keyed by smt::ContentKey
// (smt/fingerprint.h) so any process that builds the same logical
// conjunction — regardless of atom interning order — addresses the same
// entry:
//
//   - check records: one VerdictEntry per conjunction (verdict, decision
//     tier, and budget provenance). Solver::check() loads, claims and
//     stores through the store it is attached to.
//   - task records: the outcome of one scheduler QueryTask (consistency
//     probe or pair-probe sequence), keyed by the base conjunction plus the
//     ordered probes. The scheduler splices these into its
//     result table before evaluation, so a warm run of an unchanged
//     context performs ZERO solver checks — not even cache-hit ones.
//
// Durability contract of the disk layer:
//   - every file is named by its key's 128-bit digest and carries the
//     key's canonical string (ContentKey::canonical), rendered on write and
//     verified byte-for-byte on load; the name only locates candidates, so
//     a digest collision costs a miss, never a wrong verdict;
//   - files end with an `ok` terminator; corrupt or truncated files (torn
//     writes, disk faults, concurrent writers on non-POSIX filesystems)
//     fall through to recompute — loads NEVER throw;
//   - writes go to a unique temp file and are renamed into place, so
//     concurrent runs sharing one cache directory never observe partial
//     records;
//   - budget provenance rides along, and loads re-apply
//     VerdictEntry::sufficientFor under the CALLER's step limit — a
//     budget-starved Unknown persisted by one run can never poison a later
//     unlimited run, and vice versa.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "smt/solver.h"

namespace formad::support {
class CancelToken;
}

namespace formad::smt {

/// A cached check verdict plus the decision tier (0/1 fast path, 2 full
/// solve) that first produced it. The tier is a pure function of the
/// conjunction (every decider is deterministic and order-independent), so
/// serving it with the verdict keeps per-tier accounting identical at any
/// pool width.
///
/// Budget provenance: `complete` records whether the verdict finished its
/// solve; `steps` holds the deterministic step count it consumed
/// (complete) or the step limit it ran out at (incomplete). An entry is
/// only served to a solver whose budget would have produced the same
/// answer — so a budget-limited Unknown can never poison a later run with
/// a larger budget, and a large-budget verdict can never leak into a run
/// whose budget could not have afforded it.
struct VerdictEntry {
  CheckResult result = CheckResult::Unknown;
  int tier = 2;
  bool complete = true;
  long long steps = 0;

  /// True iff a solver with per-check step budget `stepLimit` (<= 0 =
  /// unlimited) would derive exactly this entry's verdict itself: a
  /// complete verdict needs the budget to cover its step count; an
  /// exhausted one needs a budget no larger than the one that ran out
  /// (step counts are deterministic, so exhaustion is monotone in the
  /// limit).
  [[nodiscard]] static bool sufficientFor(const VerdictEntry& e,
                                          long long stepLimit) {
    return e.complete ? (stepLimit <= 0 || e.steps <= stepLimit)
                      : (stepLimit > 0 && stepLimit <= e.steps);
  }

  /// True when `e` covers strictly more budgets than `cur` (a complete
  /// verdict over an exhausted one, or an exhaustion at a larger limit).
  /// Serving is guarded by sufficientFor, so this only affects hit rates,
  /// never verdicts.
  [[nodiscard]] static bool upgrades(const VerdictEntry& e,
                                     const VerdictEntry& cur) {
    return (e.complete && !cur.complete) ||
           (!e.complete && !cur.complete && e.steps > cur.steps);
  }
};

/// RAII handle for one single-flight claim in a PersistentVerdictStore.
///
/// A claim marks one content key (a solver check or a scheduler task) as
/// "being computed right now" so concurrent duplicates block and join the
/// winner's published result instead of re-paying the SMT bill.
///
/// Lifecycle:
///   - PersistentVerdictStore::claimCheck/claimTask return either a served
///     result or an *owned* claim; the owner computes the result and
///     publishes it with storeCheck/storeTask, which resolves the claim and
///     wakes all joiners.
///   - If the owner unwinds without publishing (cancellation, deadline,
///     injected fault), the destructor unclaims: the registry entry is
///     erased, joiners wake, re-probe, and the first of them becomes the
///     new owner and recomputes. A claim can therefore never be leaked or
///     poison a result — failure costs a recompute, nothing more.
class FlightClaim {
 public:
  FlightClaim() = default;
  FlightClaim(FlightClaim&& o) noexcept
      : store_(o.store_), key_(std::move(o.key_)), token_(o.token_) {
    o.store_ = nullptr;
  }
  FlightClaim& operator=(FlightClaim&& o) noexcept {
    if (this != &o) {
      release();
      store_ = o.store_;
      key_ = std::move(o.key_);
      token_ = o.token_;
      o.store_ = nullptr;
    }
    return *this;
  }
  FlightClaim(const FlightClaim&) = delete;
  FlightClaim& operator=(const FlightClaim&) = delete;
  ~FlightClaim() { release(); }

  /// True while this handle owns an unresolved registry entry. False for
  /// default-constructed (inert) claims and after release/publish.
  [[nodiscard]] bool owned() const { return store_ != nullptr; }

  /// Unclaims without publishing (identical to destruction). Safe to call
  /// after the owner published: publishing already resolved the registry
  /// entry, so this degenerates to dropping the handle.
  void release();

 private:
  friend class PersistentVerdictStore;
  FlightClaim(PersistentVerdictStore* store, ContentKey key,
              unsigned long long token)
      : store_(store), key_(std::move(key)), token_(token) {}

  PersistentVerdictStore* store_ = nullptr;
  ContentKey key_;
  unsigned long long token_ = 0;
};

/// Thread-safe verdict store. Safe to share between all solvers and
/// schedulers of a run and between concurrent runs and daemon sessions.
///
/// Keys: the store owns the ConstraintInterner every key handed to it must
/// be built from (solvers and the scheduler intern through interner()), so
/// identities compare by handle across all the solvers, schedulers and
/// sessions sharing the store.
///
/// Memory layer: every record loaded from or written to the store is
/// memoized in a sharded in-process map, so a repeated query the memory
/// entry can serve never touches the filesystem. It is sound by the same
/// argument as the disk layer — records are pure functions of their content
/// key and budget provenance, and every hit re-applies
/// VerdictEntry::sufficientFor under the caller's step limit. A store
/// constructed with an EMPTY
/// directory is memory-only: what a store-free analysis, a solver with
/// nothing attached, and `formad_serve` without --cache-dir use.
class PersistentVerdictStore {
 public:
  /// Opens (creating if needed) the store directory, or makes a
  /// memory-only store when `dir` is empty. Throws formad::Error when the
  /// directory cannot be created or is not writable.
  explicit PersistentVerdictStore(std::string dir = {});

  /// Outcome of one persisted scheduler task: the summary verdict plus the
  /// per-check replay trace (tier / exhausted flag / step provenance per
  /// check, in probe order).
  struct TaskRecord {
    bool unsat = false;     // Consistency: base proven Unsat
    bool pairSafe = false;  // Pair: some probe proved disjointness
    std::vector<int> tiers;
    std::vector<char> exhausted;
    std::vector<long long> steps;  // complete: steps used; else limit hit
  };

  /// The interner every key passed to this store must be built from.
  [[nodiscard]] ConstraintInterner& interner() { return interner_; }

  /// Loads the check verdict recorded under `key` (a KeyKind::Check key),
  /// or nullopt when absent, corrupt, keyed differently (digest
  /// collision), or recorded under a budget insufficient for `stepLimit`.
  /// The memory layer answers first; a memory miss reads the disk.
  [[nodiscard]] std::optional<VerdictEntry> loadCheck(const ContentKey& key,
                                                      long long stepLimit);
  /// Records `e` when it is new or upgrades the memory entry (and only
  /// then writes it to disk, so a starved re-derivation never overwrites a
  /// stronger record), and resolves the key's single-flight claim.
  void storeCheck(const ContentKey& key, const VerdictEntry& e);

  /// Loads the task record persisted under `key` (a Consistency or Pair
  /// key); same guard as loadCheck, applied to EVERY recorded check (the
  /// replayed probe walk matches what re-derivation under `stepLimit`
  /// would produce only if each recorded verdict does).
  [[nodiscard]] std::optional<TaskRecord> loadTask(const ContentKey& key,
                                                   long long stepLimit);
  void storeTask(const ContentKey& key, const TaskRecord& rec);

  // Single-flight in-flight registry (duplicate-proof suppression).
  //
  // claimCheck/claimTask gate one evaluation per content fingerprint at a
  // time: the first caller gets an owned FlightClaim and computes; every
  // concurrent duplicate blocks here, re-probing the memory/disk layers
  // until the owner publishes (storeCheck/storeTask resolve the claim) or
  // unclaims (FlightClaim destruction without publishing), in which case
  // the first waiter to re-probe becomes the new owner and recomputes.
  //
  // Verdict-neutrality: a joined result is served through the SAME loads —
  // and hence the same budget-provenance guard under the JOINER's step
  // limit — as any cold cache hit. A publish that is insufficient for a
  // waiting joiner's budget does not satisfy it; the joiner claims and
  // recomputes under its own budget. Dedup changes wall time and IO/dedup
  // counters only, never a verdict.
  //
  // `cancel`, when non-null, is polled while waiting; a fired token throws
  // support::Cancelled, so a joiner can never hang on a stalled winner
  // past its own deadline.

  struct CheckClaim {
    std::optional<VerdictEntry> served;  // set: result is available
    FlightClaim claim;  // owned() set: caller computes, then storeCheck()s
  };
  [[nodiscard]] CheckClaim claimCheck(const ContentKey& key,
                                      long long stepLimit,
                                      const support::CancelToken* cancel);

  struct TaskClaim {
    std::optional<TaskRecord> served;
    FlightClaim claim;
  };
  [[nodiscard]] TaskClaim claimTask(const ContentKey& key, long long stepLimit,
                                    const support::CancelToken* cancel);

  /// Monotone IO counters (relaxed atomics; snapshot semantics only).
  /// Memory-layer hits count toward checkHits/taskHits AND the dedicated
  /// memory counters; the difference is what the disk served. Check stores
  /// count new or upgraded entries only.
  struct Stats {
    long long checkHits = 0;
    long long checkMisses = 0;
    long long checkStores = 0;
    long long taskHits = 0;
    long long taskMisses = 0;
    long long taskStores = 0;
    long long checkMemoryHits = 0;
    long long taskMemoryHits = 0;
    // Single-flight dedup counters (checks + tasks combined): ownership
    // grants, results served to a caller that waited on another's claim,
    // and claims released without publishing.
    long long flightClaims = 0;
    long long flightJoins = 0;
    long long flightUnclaims = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  friend class FlightClaim;

  /// Load bodies shared by the public loads and the claim loops. The claim
  /// loop re-probes on every wakeup, so its probes must not count misses —
  /// the caller's original lookup already counted the one real miss.
  [[nodiscard]] std::optional<VerdictEntry> loadCheckImpl(
      const ContentKey& key, long long stepLimit, bool countMiss);
  [[nodiscard]] std::optional<TaskRecord> loadTaskImpl(const ContentKey& key,
                                                       long long stepLimit,
                                                       bool countMiss);

  // In-flight registry: sharded (mutex, condvar, map of resolved-by-token
  // entries) keyed by content key (its kind tag keeps checks and tasks
  // apart). resolveFlight is called by every store (publish resolves);
  // releaseFlight by FlightClaim (unclaim), which erases only if the token
  // still matches — a later claimant's fresh entry is never clobbered by a
  // stale handle.
  struct FlightShard {
    std::mutex mu;
    std::condition_variable cv;
    ContentMap<unsigned long long> inflight;
  };
  [[nodiscard]] FlightShard& flightShardFor(const ContentKey& key) {
    return flightShards_[key.digest.hi % kMemShards];
  }
  void resolveFlight(const ContentKey& key);
  /// `countUnclaim` is false only for the claim loops' verification-probe
  /// release (registered, then found the result already published): nothing
  /// was abandoned mid-compute, so it is not an unclaim for the counters.
  void releaseFlight(const ContentKey& key, unsigned long long token,
                     bool countUnclaim = true);
  /// The claim loop body shared by claimCheck/claimTask: returns an owned
  /// claim once the key is free, or nullopt after a wakeup (caller
  /// re-probes). Throws support::Cancelled when `cancel` fires.
  [[nodiscard]] std::optional<FlightClaim> awaitOrClaim(
      const ContentKey& key, bool& waited, const support::CancelToken* cancel);

  /// Record file of `key`: `c` (checks) or `t` (tasks) + the digest's hex.
  [[nodiscard]] std::string pathFor(const ContentKey& key) const;
  /// Writes `payload` atomically to the record file of `key`.
  void writeRecord(const ContentKey& key, const std::string& payload);
  /// Reads + verifies the record file of `key`; returns the payload lines
  /// between the verified canonical key and the `ok` terminator, or
  /// nullopt.
  [[nodiscard]] std::optional<std::vector<std::string>> readRecord(
      const ContentKey& key) const;

  // Memory layer: sharded maps keyed by content key. Positive
  // records only — a miss is never memoized, so a record another process
  // writes to the shared directory later is still found. Check entries
  // keep the stronger entry (VerdictEntry::upgrades); task records are
  // last-write-wins, which is sound because every load re-applies the
  // budget guard.
  static constexpr size_t kMemShards = 16;
  struct MemShard {
    std::mutex mu;
    ContentMap<VerdictEntry> checks;
    ContentMap<TaskRecord> tasks;
  };
  [[nodiscard]] MemShard& shardFor(const ContentKey& key) {
    return memShards_[key.digest.hi % kMemShards];
  }
  /// Memoizes a check entry, keeping the stronger of old and new. Returns
  /// true when `e` is new or upgraded the entry.
  bool memoizeCheck(const ContentKey& key, const VerdictEntry& e);
  /// Memoizes a task record (last write wins).
  void memoizeTask(const ContentKey& key, const TaskRecord& rec);

  ConstraintInterner interner_;
  std::string dir_;
  std::array<MemShard, kMemShards> memShards_;
  std::array<FlightShard, kMemShards> flightShards_;
  std::atomic<long long> checkHits_{0}, checkMisses_{0}, checkStores_{0};
  std::atomic<long long> taskHits_{0}, taskMisses_{0}, taskStores_{0};
  std::atomic<long long> checkMemHits_{0}, taskMemHits_{0};
  std::atomic<long long> flightClaims_{0}, flightJoins_{0},
      flightUnclaims_{0};
  std::atomic<unsigned long long> claimToken_{1};
  std::atomic<unsigned long long> tmpCounter_{0};
};

}  // namespace formad::smt
