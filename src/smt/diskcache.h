// Disk-backed content-addressed verdict store (the `-cache-dir` layer).
//
// Persists two record kinds across runs, both keyed by smt::ContentKey
// (smt/fingerprint.h) so any process that builds the same logical
// conjunction — regardless of atom interning order — addresses the same
// entry:
//
//   - check records: one solver verdict per conjunction fingerprint, the
//     durable twin of a VerdictCache::Entry (verdict, decision tier, and
//     the PR 5 budget provenance). VerdictCache consults the store on a
//     memory miss and writes through on store().
//   - task records: the outcome of one scheduler QueryTask (consistency
//     probe or pair-probe sequence), keyed by the base conjunction plus the
//     ordered probes. The scheduler splices these into its
//     result table before evaluation, so a warm run of an unchanged
//     context performs ZERO solver checks — not even cache-hit ones.
//
// Durability contract:
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
//     VerdictCache::sufficientFor under the CALLER's step limit — a
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

#include "smt/singleflight.h"
#include "smt/solver.h"

namespace formad::support {
class CancelToken;
}

namespace formad::smt {

/// Thread-safe persistent verdict store over one directory. Safe to share
/// between all solvers/schedulers of a run and between concurrent runs.
///
/// Keys: the store owns the ConstraintInterner every key handed to it must
/// be built from (VerdictCache and the scheduler intern through
/// interner()), so identities compare by handle across all the solvers,
/// schedulers and sessions sharing the store.
///
/// Memory layer (the serving daemon's shared hot cache): with
/// `memoryLayer` enabled, every record loaded from or written to disk is
/// also memoized in a sharded in-process map, so repeated queries for the
/// same content key are answered without touching the filesystem. The
/// layer is sound by the same argument as the disk layer — records are
/// pure functions of their content key and budget provenance, and every
/// memory hit re-applies VerdictCache::sufficientFor under the caller's
/// step limit — so enabling it changes IO counters and wall time only,
/// never a verdict. A store constructed with an EMPTY directory is
/// memory-only: a process-wide shared verdict cache with no persistence
/// (what `formad_serve` uses when no --cache-dir is given).
class PersistentVerdictStore {
 public:
  /// Opens (creating if needed) the store directory. Throws formad::Error
  /// when the directory cannot be created or is not writable. An empty
  /// `dir` requires `memoryLayer` and yields a memory-only store.
  explicit PersistentVerdictStore(std::string dir, bool memoryLayer = false);

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

  /// Loads the check verdict persisted under `key` (a KeyKind::Check key),
  /// or nullopt when absent, corrupt, keyed differently (digest
  /// collision), or recorded under a budget insufficient for `stepLimit`.
  [[nodiscard]] std::optional<VerdictCache::Entry> loadCheck(
      const ContentKey& key, long long stepLimit);
  void storeCheck(const ContentKey& key, const VerdictCache::Entry& e);

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
    std::optional<VerdictCache::Entry> served;  // set: result is available
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
  /// memory counters, so hit rates stay comparable with and without the
  /// layer.
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
  [[nodiscard]] bool memoryLayerEnabled() const { return memoryLayer_; }

 private:
  friend class FlightClaim;

  /// Load bodies shared by the public loads and the claim loops. The claim
  /// loop re-probes on every wakeup, so its probes must not count misses —
  /// the caller's original lookup already counted the one real miss.
  [[nodiscard]] std::optional<VerdictCache::Entry> loadCheckImpl(
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
  // keep the upgrade rule of VerdictCache::store (complete beats
  // exhausted, larger exhaustion limit beats smaller); task records are
  // last-write-wins, which is sound because every load re-applies the
  // budget guard.
  static constexpr size_t kMemShards = 16;
  struct MemShard {
    std::mutex mu;
    ContentMap<VerdictCache::Entry> checks;
    ContentMap<TaskRecord> tasks;
  };
  [[nodiscard]] MemShard& shardFor(const ContentKey& key) {
    return memShards_[key.digest.hi % kMemShards];
  }
  /// Memoizes a check entry, keeping the stronger of old and new.
  void memoizeCheck(const ContentKey& key, const VerdictCache::Entry& e);
  /// Memoizes a task record (last write wins).
  void memoizeTask(const ContentKey& key, const TaskRecord& rec);

  ConstraintInterner interner_;
  std::string dir_;
  bool memoryLayer_ = false;
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
