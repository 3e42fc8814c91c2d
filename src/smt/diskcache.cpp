#include "smt/diskcache.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "smt/fingerprint.h"
#include "support/cancel.h"
#include "support/diagnostics.h"

namespace formad::smt {

namespace fs = std::filesystem;

namespace {

// Version 2: records are named by ContentKey digests and carry the
// ContentKey canonical string. A version-1 file never matches the magic,
// so an old directory is a clean miss.
constexpr const char* kMagic = "formadvc 2";

char recordKind(const ContentKey& key) {
  return key.kind == KeyKind::Check ? 'c' : 't';
}

const char* verdictTag(CheckResult r) {
  switch (r) {
    case CheckResult::Sat: return "sat";
    case CheckResult::Unsat: return "unsat";
    case CheckResult::Unknown: return "unknown";
  }
  return "?";
}

std::optional<CheckResult> parseVerdict(const std::string& tag) {
  if (tag == "sat") return CheckResult::Sat;
  if (tag == "unsat") return CheckResult::Unsat;
  if (tag == "unknown") return CheckResult::Unknown;
  return std::nullopt;
}

}  // namespace

PersistentVerdictStore::PersistentVerdictStore(std::string dir)
    : dir_(std::move(dir)) {
  if (dir_.empty()) return;  // memory-only: no filesystem involvement
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_, ec))
    fail("cache directory '" + dir_ + "' cannot be created: " + ec.message());
}

bool PersistentVerdictStore::memoizeCheck(const ContentKey& key,
                                          const VerdictEntry& e) {
  MemShard& shard = shardFor(key);
  std::lock_guard<std::mutex> lk(shard.mu);
  auto [cur, inserted] = shard.checks.emplace(key, e);
  if (inserted) return true;
  if (!VerdictEntry::upgrades(e, *cur)) return false;
  *cur = e;
  return true;
}

void PersistentVerdictStore::memoizeTask(const ContentKey& key,
                                         const TaskRecord& rec) {
  MemShard& shard = shardFor(key);
  std::lock_guard<std::mutex> lk(shard.mu);
  auto [cur, inserted] = shard.tasks.emplace(key, rec);
  if (!inserted) *cur = rec;
}

std::string PersistentVerdictStore::pathFor(const ContentKey& key) const {
  return dir_ + "/" + recordKind(key) + key.digest.hex() + ".fvc";
}

void PersistentVerdictStore::writeRecord(const ContentKey& key,
                                         const std::string& payload) {
  // Unique temp name: concurrent writers (threads or whole processes
  // sharing the directory) never collide, and the final rename is atomic —
  // readers see either no file or a complete one.
  const unsigned long long n =
      tmpCounter_.fetch_add(1, std::memory_order_relaxed);
  const std::string digest = key.digest.hex();
  const std::string tmp =
      dir_ + "/.tmp-" + digest + "-" +
      std::to_string(key.digest.lo ^
                     reinterpret_cast<unsigned long long>(this)) +
      "-" + std::to_string(n);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // best effort: an unwritable store is a slow one
    const std::string canonical = key.canonical();
    out << kMagic << ' ' << recordKind(key) << '\n'
        << "key " << canonical.size() << '\n'
        << canonical << '\n'
        << payload << "ok\n";
    out.flush();
    if (!out) {
      out.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      return;
    }
  }
  if (std::rename(tmp.c_str(), pathFor(key).c_str()) != 0) {
    std::error_code ec;
    fs::remove(tmp, ec);
  }
}

std::optional<std::vector<std::string>> PersistentVerdictStore::readRecord(
    const ContentKey& key) const {
  std::ifstream in(pathFor(key), std::ios::binary);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) ||
      line != std::string(kMagic) + ' ' + recordKind(key))
    return std::nullopt;
  if (!std::getline(in, line) || line.rfind("key ", 0) != 0)
    return std::nullopt;
  size_t nbytes = 0;
  try {
    nbytes = std::stoull(line.substr(4));
  } catch (...) {
    return std::nullopt;
  }
  // Collision-proof verification: the digest in the file name only located
  // a candidate; the verdict is served only if the canonical key matches.
  if (nbytes != key.canonicalSize()) return std::nullopt;
  std::string stored(nbytes, '\0');
  if (!in.read(stored.data(), static_cast<std::streamsize>(nbytes)) ||
      !key.matchesCanonical(stored) || in.get() != '\n')
    return std::nullopt;
  std::vector<std::string> payload;
  while (std::getline(in, line)) {
    if (line == "ok") return payload;  // terminator: the record is whole
    payload.push_back(std::move(line));
  }
  return std::nullopt;  // truncated: treat as absent, recompute
}

std::optional<VerdictEntry> PersistentVerdictStore::loadCheck(
    const ContentKey& key, long long stepLimit) {
  return loadCheckImpl(key, stepLimit, /*countMiss=*/true);
}

std::optional<VerdictEntry> PersistentVerdictStore::loadCheckImpl(
    const ContentKey& key, long long stepLimit, bool countMiss) {
  {
    MemShard& shard = shardFor(key);
    std::lock_guard<std::mutex> lk(shard.mu);
    const VerdictEntry* e = shard.checks.find(key);
    if (e != nullptr && VerdictEntry::sufficientFor(*e, stepLimit)) {
      checkHits_.fetch_add(1, std::memory_order_relaxed);
      checkMemHits_.fetch_add(1, std::memory_order_relaxed);
      return *e;
    }
  }
  // A guard-failing or absent memory entry falls through to disk: a
  // concurrent run sharing the directory may have persisted an upgraded
  // record the memory layer has not seen.
  auto payload = dir_.empty() ? std::nullopt : readRecord(key);
  if (payload && payload->size() == 1) {
    std::istringstream is((*payload)[0]);
    std::string tag, verdict;
    VerdictEntry e;
    int complete = -1;
    if (is >> tag >> verdict >> e.tier >> complete >> e.steps &&
        tag == "verdict" && (complete == 0 || complete == 1) && e.tier >= 0 &&
        e.tier <= 2) {
      if (auto r = parseVerdict(verdict)) {
        e.result = *r;
        e.complete = complete != 0;
        memoizeCheck(key, e);
        // The budget-provenance guard governs disk entries exactly as it
        // governs memory ones.
        if (VerdictEntry::sufficientFor(e, stepLimit)) {
          checkHits_.fetch_add(1, std::memory_order_relaxed);
          return e;
        }
      }
    }
  }
  if (countMiss) checkMisses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void PersistentVerdictStore::storeCheck(const ContentKey& key,
                                        const VerdictEntry& e) {
  // Only a new or stronger entry is recorded: the disk record a starved
  // re-derivation would overwrite is at least as strong as `e`.
  if (memoizeCheck(key, e)) {
    if (!dir_.empty()) {
      std::string payload = "verdict ";
      payload += verdictTag(e.result);
      payload += ' ';
      payload += std::to_string(e.tier);
      payload += e.complete ? " 1 " : " 0 ";
      payload += std::to_string(e.steps);
      payload += '\n';
      writeRecord(key, payload);
    }
    checkStores_.fetch_add(1, std::memory_order_relaxed);
  }
  // Publishing resolves any in-flight claim for this key: joiners wake and
  // re-probe the layers the lines above just populated.
  resolveFlight(key);
}

namespace {

/// True iff every recorded check of `rec` passes the budget-provenance
/// guard under `stepLimit` (the memory-layer twin of loadTask's per-check
/// walk over the disk payload).
bool taskSufficientFor(const PersistentVerdictStore::TaskRecord& rec,
                       long long stepLimit) {
  for (size_t i = 0; i < rec.tiers.size(); ++i) {
    const VerdictEntry e{CheckResult::Unknown, rec.tiers[i],
                         rec.exhausted[i] == 0, rec.steps[i]};
    if (!VerdictEntry::sufficientFor(e, stepLimit)) return false;
  }
  return true;
}

}  // namespace

std::optional<PersistentVerdictStore::TaskRecord>
PersistentVerdictStore::loadTask(const ContentKey& key, long long stepLimit) {
  return loadTaskImpl(key, stepLimit, /*countMiss=*/true);
}

std::optional<PersistentVerdictStore::TaskRecord>
PersistentVerdictStore::loadTaskImpl(const ContentKey& key,
                                     long long stepLimit, bool countMiss) {
  {
    MemShard& shard = shardFor(key);
    std::lock_guard<std::mutex> lk(shard.mu);
    const TaskRecord* rec = shard.tasks.find(key);
    if (rec != nullptr && taskSufficientFor(*rec, stepLimit)) {
      taskHits_.fetch_add(1, std::memory_order_relaxed);
      taskMemHits_.fetch_add(1, std::memory_order_relaxed);
      return *rec;
    }
  }
  auto payload = dir_.empty() ? std::nullopt : readRecord(key);
  if (payload && !payload->empty()) {
    std::istringstream head((*payload)[0]);
    std::string tag;
    int unsat = -1, pairSafe = -1;
    size_t nChecks = 0;
    if (head >> tag >> unsat >> pairSafe >> nChecks && tag == "task" &&
        (unsat == 0 || unsat == 1) && (pairSafe == 0 || pairSafe == 1) &&
        payload->size() == nChecks + 1) {
      TaskRecord rec;
      rec.unsat = unsat != 0;
      rec.pairSafe = pairSafe != 0;
      bool good = true;
      for (size_t i = 0; i < nChecks && good; ++i) {
        std::istringstream is((*payload)[i + 1]);
        int tier = -1, exhausted = -1;
        long long steps = 0;
        good = static_cast<bool>(is >> tag >> tier >> exhausted >> steps) &&
               tag == "c" && tier >= 0 && tier <= 2 &&
               (exhausted == 0 || exhausted == 1);
        if (!good) break;
        // Serve the record only when EVERY recorded check would have been
        // derived identically under the caller's budget; then induction
        // over the probe sequence gives the same walk, same stopping
        // point, same verdict.
        const VerdictEntry e{CheckResult::Unknown, tier, exhausted == 0,
                             steps};
        good = VerdictEntry::sufficientFor(e, stepLimit);
        rec.tiers.push_back(tier);
        rec.exhausted.push_back(static_cast<char>(exhausted));
        rec.steps.push_back(steps);
      }
      if (good) {
        memoizeTask(key, rec);
        taskHits_.fetch_add(1, std::memory_order_relaxed);
        return rec;
      }
    }
  }
  if (countMiss) taskMisses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void PersistentVerdictStore::storeTask(const ContentKey& key,
                                       const TaskRecord& rec) {
  memoizeTask(key, rec);
  if (dir_.empty()) {
    taskStores_.fetch_add(1, std::memory_order_relaxed);
    resolveFlight(key);
    return;
  }
  std::string payload = "task ";
  payload += rec.unsat ? "1 " : "0 ";
  payload += rec.pairSafe ? "1 " : "0 ";
  payload += std::to_string(rec.tiers.size());
  payload += '\n';
  for (size_t i = 0; i < rec.tiers.size(); ++i) {
    payload += "c ";
    payload += std::to_string(rec.tiers[i]);
    payload += rec.exhausted[i] != 0 ? " 1 " : " 0 ";
    payload += std::to_string(rec.steps[i]);
    payload += '\n';
  }
  writeRecord(key, payload);
  taskStores_.fetch_add(1, std::memory_order_relaxed);
  resolveFlight(key);
}

void PersistentVerdictStore::resolveFlight(const ContentKey& key) {
  FlightShard& fs = flightShardFor(key);
  bool erased = false;
  {
    std::lock_guard<std::mutex> lk(fs.mu);
    erased = fs.inflight.erase(key);
  }
  if (erased) fs.cv.notify_all();
}

void PersistentVerdictStore::releaseFlight(const ContentKey& key,
                                           unsigned long long token,
                                           bool countUnclaim) {
  FlightShard& fs = flightShardFor(key);
  bool erased = false;
  {
    std::lock_guard<std::mutex> lk(fs.mu);
    const unsigned long long* held = fs.inflight.find(key);
    // Token check: if the publish already resolved this entry (and perhaps
    // a new claimant re-registered the key), a stale handle must not erase
    // the newcomer's claim.
    if (held != nullptr && *held == token) erased = fs.inflight.erase(key);
  }
  if (erased) {
    if (countUnclaim)
      flightUnclaims_.fetch_add(1, std::memory_order_relaxed);
    fs.cv.notify_all();
  }
}

std::optional<FlightClaim> PersistentVerdictStore::awaitOrClaim(
    const ContentKey& key, bool& waited, const support::CancelToken* cancel) {
  FlightShard& fs = flightShardFor(key);
  std::unique_lock<std::mutex> lk(fs.mu);
  if (fs.inflight.find(key) == nullptr) {
    const unsigned long long token =
        claimToken_.fetch_add(1, std::memory_order_relaxed);
    fs.inflight.emplace(key, token);
    flightClaims_.fetch_add(1, std::memory_order_relaxed);
    return FlightClaim(this, key, token);
  }
  waited = true;
  // Bounded wait, then let the caller re-probe: the condvar wakeup is an
  // optimization, the timeout guarantees progress (and gives the cancel
  // token a polling edge) even if a notify is missed.
  fs.cv.wait_for(lk, std::chrono::milliseconds(20));
  lk.unlock();
  if (cancel != nullptr && cancel->poll()) throw support::Cancelled();
  return std::nullopt;
}

PersistentVerdictStore::CheckClaim PersistentVerdictStore::claimCheck(
    const ContentKey& key, long long stepLimit,
    const support::CancelToken* cancel) {
  // Probe misses inside the claim loop are never counted — the caller's
  // original lookup already counted the one real miss; hits (including
  // joined ones) count as usual.
  CheckClaim out;
  bool waited = false;
  for (;;) {
    if (auto claim = awaitOrClaim(key, waited, cancel)) {
      // Ownership verification probe. A publish fully completes (memoize,
      // then resolve) before its registry entry disappears, so if another
      // owner published before we could register, the layers already hold
      // the result here — serve it instead of recomputing. This closes the
      // lookup-miss → publish → claim race deterministically: duplicate
      // fresh evaluations cannot happen, not just rarely happen.
      if (auto e = loadCheckImpl(key, stepLimit, /*countMiss=*/false)) {
        releaseFlight(key, claim->token_, /*countUnclaim=*/false);
        claim->store_ = nullptr;  // disarm: registration already dropped
        if (waited) flightJoins_.fetch_add(1, std::memory_order_relaxed);
        out.served = *e;
        return out;
      }
      out.claim = std::move(*claim);
      return out;
    }
    // Woke from a bounded wait on another owner's claim: re-probe.
    if (auto e = loadCheckImpl(key, stepLimit, /*countMiss=*/false)) {
      flightJoins_.fetch_add(1, std::memory_order_relaxed);
      out.served = *e;
      return out;
    }
  }
}

PersistentVerdictStore::TaskClaim PersistentVerdictStore::claimTask(
    const ContentKey& key, long long stepLimit,
    const support::CancelToken* cancel) {
  TaskClaim out;
  bool waited = false;
  for (;;) {
    if (auto claim = awaitOrClaim(key, waited, cancel)) {
      if (auto rec = loadTaskImpl(key, stepLimit, /*countMiss=*/false)) {
        releaseFlight(key, claim->token_, /*countUnclaim=*/false);
        claim->store_ = nullptr;  // disarm: registration already dropped
        if (waited) flightJoins_.fetch_add(1, std::memory_order_relaxed);
        out.served = std::move(*rec);
        return out;
      }
      out.claim = std::move(*claim);
      return out;
    }
    if (auto rec = loadTaskImpl(key, stepLimit, /*countMiss=*/false)) {
      flightJoins_.fetch_add(1, std::memory_order_relaxed);
      out.served = std::move(*rec);
      return out;
    }
  }
}

void FlightClaim::release() {
  if (store_ == nullptr) return;
  PersistentVerdictStore* s = store_;
  store_ = nullptr;
  s->releaseFlight(key_, token_);
}

PersistentVerdictStore::Stats PersistentVerdictStore::stats() const {
  Stats s;
  s.checkHits = checkHits_.load(std::memory_order_relaxed);
  s.checkMisses = checkMisses_.load(std::memory_order_relaxed);
  s.checkStores = checkStores_.load(std::memory_order_relaxed);
  s.taskHits = taskHits_.load(std::memory_order_relaxed);
  s.taskMisses = taskMisses_.load(std::memory_order_relaxed);
  s.taskStores = taskStores_.load(std::memory_order_relaxed);
  s.checkMemoryHits = checkMemHits_.load(std::memory_order_relaxed);
  s.taskMemoryHits = taskMemHits_.load(std::memory_order_relaxed);
  s.flightClaims = flightClaims_.load(std::memory_order_relaxed);
  s.flightJoins = flightJoins_.load(std::memory_order_relaxed);
  s.flightUnclaims = flightUnclaims_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace formad::smt
