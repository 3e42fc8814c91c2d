// The shared work-stealing analysis pool (support::SharedAnalysisPool) and
// the single-flight in-flight proof registry layered over
// smt::PersistentVerdictStore: every task index runs exactly once at any
// worker count, a throw or a fired token skips the rest of a run,
// priority classes and fairness stats behave, duplicate claims join the
// winner's published verdict, an unclaimed (failed) winner hands ownership
// to a joiner instead of wedging it, budget-insufficient publishes do not
// satisfy joiners, and concurrent identical analyses through the driver do
// exactly one cold run's worth of fresh work while staying byte-identical.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "driver/driver.h"
#include "formad/formad.h"
#include "helpers.h"
#include "kernels/stencil.h"
#include "parser/parser.h"
#include "smt/diskcache.h"
#include "support/cancel.h"
#include "support/pool.h"

namespace {

using namespace formad;
namespace fs = std::filesystem;
using formad::testing::contentKeyOf;
using formad::testing::withDigest;

struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("formad_flight_") + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

// ---------------------------------------------------------------------------
// SharedAnalysisPool: the pool contract.

TEST(SharedPool, EveryIndexRunsExactlyOnceAtAnyWorkerCount) {
  for (int workers : {0, 1, 3, 7}) {
    support::SharedAnalysisPool pool(workers);
    auto client = pool.makeClient();
    EXPECT_EQ(client->width(), workers == 0 ? 1 : workers + 1);
    for (size_t n : {size_t{0}, size_t{1}, size_t{5}, size_t{257}}) {
      std::vector<std::atomic<int>> ran(n);
      for (auto& r : ran) r.store(0);
      client->run(n, [&](size_t i, int worker) {
        ASSERT_LT(worker, client->width());
        ran[i].fetch_add(1);
      });
      EXPECT_EQ(client->lastRunSkipped(), 0u);
      for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(ran[i].load(), 1) << "workers=" << workers << " i=" << i;
    }
  }
}

// A throw is rethrown after the run, fires the token and skips every
// unclaimed task; the client stays usable for the next run. Inline (no
// workers) the run stops right at the throw, after tasks 0..2.
TEST(SharedPool, FirstExceptionRethrownAndRestSkipped) {
  for (int workers : {0, 3}) {
    support::SharedAnalysisPool pool(workers);
    auto client = pool.makeClient();
    support::CancelToken cancel;
    constexpr size_t n = 64;
    std::vector<std::atomic<int>> ran(n);
    for (auto& r : ran) r.store(0);
    try {
      client->run(
          n,
          [&](size_t i, int) {
            if (i == 3) throw std::runtime_error("task 3 failed");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            ran[i].store(1);
          },
          &cancel);
      ADD_FAILURE() << "workers=" << workers << ": the throw was swallowed";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "task 3 failed");
    }
    EXPECT_TRUE(cancel.cancelled()) << "workers=" << workers;
    size_t executed = 0;
    for (const auto& r : ran) executed += static_cast<size_t>(r.load());
    // Every other task either ran or was skipped: the skip count is what
    // lets callers degrade unfinished work conservatively.
    EXPECT_EQ(executed + client->lastRunSkipped(), n - 1)
        << "workers=" << workers;
    EXPECT_GT(client->lastRunSkipped(), 0u) << "workers=" << workers;
    if (workers == 0) {
      EXPECT_EQ(executed, 3u);
      for (size_t i = 0; i < 3; ++i) EXPECT_EQ(ran[i].load(), 1) << i;
    }

    std::atomic<size_t> after{0};
    client->run(8, [&](size_t, int) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 8u) << "workers=" << workers;
    EXPECT_EQ(client->lastRunSkipped(), 0u) << "workers=" << workers;
  }
}

TEST(SharedPool, FiredCancelTokenSkipsRemainingTasks) {
  support::SharedAnalysisPool pool(2);
  auto client = pool.makeClient();
  support::CancelToken cancel;
  std::atomic<int> executed{0};
  client->run(
      100,
      [&](size_t i, int) {
        if (i == 3) cancel.cancel();
        executed.fetch_add(1);
      },
      &cancel);
  EXPECT_GT(client->lastRunSkipped(), 0u);
  EXPECT_EQ(executed.load() + static_cast<int>(client->lastRunSkipped()), 100);
}

TEST(SharedPool, PreCancelledTokenSkipsEveryTask) {
  for (int workers : {0, 3}) {
    support::SharedAnalysisPool pool(workers);
    auto client = pool.makeClient();
    support::CancelToken cancel;
    cancel.cancel();
    std::atomic<size_t> executed{0};
    client->run(
        16, [&](size_t, int) { executed.fetch_add(1); }, &cancel);
    EXPECT_EQ(executed.load(), 0u) << "workers=" << workers;
    EXPECT_EQ(client->lastRunSkipped(), 16u) << "workers=" << workers;
  }
}

TEST(SharedPool, DeadlineTokenStopsALongRun) {
  for (int workers : {0, 3}) {
    support::SharedAnalysisPool pool(workers);
    auto client = pool.makeClient();
    support::CancelToken cancel;
    cancel.armDeadline(5);
    std::atomic<size_t> executed{0};
    client->run(
        1000,
        [&](size_t, int) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          executed.fetch_add(1);
        },
        &cancel);
    // Liveness, not a precise count: the run returned and the deadline
    // cut the 1000 ms of work short.
    EXPECT_EQ(executed.load() + client->lastRunSkipped(), 1000u)
        << "workers=" << workers;
    EXPECT_GT(client->lastRunSkipped(), 0u) << "workers=" << workers;
  }
}

TEST(SharedPool, ConcurrentClientsAllCompleteAndShareWorkers) {
  support::SharedAnalysisPool pool(4);
  constexpr int kClients = 6;
  constexpr size_t kTasks = 300;
  std::vector<std::atomic<int>> done(kClients);
  for (auto& d : done) d.store(0);
  std::vector<std::thread> sessions;
  for (int c = 0; c < kClients; ++c) {
    sessions.emplace_back([&pool, &done, c] {
      auto client = pool.makeClient();
      client->setPriority(c % support::SharedAnalysisPool::kPriorityClasses);
      for (int round = 0; round < 3; ++round)
        client->run(kTasks, [&](size_t, int) { done[c].fetch_add(1); });
    });
  }
  for (auto& t : sessions) t.join();
  for (int c = 0; c < kClients; ++c)
    EXPECT_EQ(done[c].load(), static_cast<int>(kTasks) * 3);
  const auto s = pool.stats();
  EXPECT_EQ(s.workers, 4);
  EXPECT_EQ(s.queuedJobs, 0);
  EXPECT_EQ(s.busyWorkers, 0);
  EXPECT_EQ(s.jobsRun, kClients * 3);
  EXPECT_EQ(s.tasksStolen + s.tasksOwnerRun,
            static_cast<long long>(kTasks) * kClients * 3);
}

TEST(SharedPool, PriorityIsClampedToValidClasses) {
  support::SharedAnalysisPool pool(1);
  auto client = pool.makeClient();
  client->setPriority(-5);
  EXPECT_EQ(client->priority(), support::SharedAnalysisPool::kPriorityHigh);
  client->setPriority(99);
  EXPECT_EQ(client->priority(), support::SharedAnalysisPool::kPriorityLow);
}

// ---------------------------------------------------------------------------
// Single-flight registry, store level.

/// A check key over one literal constraint key, interned in `store`.
smt::ContentKey checkKey(smt::PersistentVerdictStore& store,
                         const std::string& constraint) {
  return contentKeyOf(store.interner(), smt::KeyKind::Check, {constraint});
}

smt::VerdictEntry unsatEntry() {
  smt::VerdictEntry e;
  e.result = smt::CheckResult::Unsat;
  e.tier = 2;
  e.complete = true;
  e.steps = 10;
  return e;
}

TEST(SingleFlight, JoinerIsServedTheWinnersPublishedVerdict) {
  smt::PersistentVerdictStore store;
  const auto key = checkKey(store, "a=b");

  auto winner = store.claimCheck(key, 0, nullptr);
  ASSERT_FALSE(winner.served.has_value());
  ASSERT_TRUE(winner.claim.owned());

  std::optional<smt::VerdictEntry> joined;
  std::thread joiner([&] {
    auto c = store.claimCheck(key, 0, nullptr);
    // Whether this thread blocked on the claim or probed after the publish
    // resolved it, it must be SERVED — never a second owner.
    ASSERT_TRUE(c.served.has_value());
    EXPECT_FALSE(c.claim.owned());
    joined = c.served;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  store.storeCheck(key, unsatEntry());  // publish resolves the claim

  joiner.join();
  ASSERT_TRUE(joined.has_value());
  EXPECT_EQ(joined->result, smt::CheckResult::Unsat);
  EXPECT_TRUE(joined->complete);
  const auto s = store.stats();
  EXPECT_EQ(s.flightUnclaims, 0);
  EXPECT_GE(s.flightClaims, 1);
}

TEST(SingleFlight, FailedWinnerUnclaimsAndAJoinerRecomputes) {
  smt::PersistentVerdictStore store;
  const auto key = checkKey(store, "fails");

  std::optional<smt::PersistentVerdictStore::CheckClaim> winner(
      store.claimCheck(key, 0, nullptr));
  ASSERT_TRUE(winner->claim.owned());

  std::atomic<bool> joinerOwned{false};
  std::thread joiner([&] {
    auto c = store.claimCheck(key, 0, nullptr);
    // The winner died without publishing: this thread must be promoted to
    // owner (no hang, no poisoned result) and recompute.
    ASSERT_TRUE(c.claim.owned());
    EXPECT_FALSE(c.served.has_value());
    joinerOwned.store(true);
    store.storeCheck(key, unsatEntry());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  winner.reset();  // simulated mid-flight failure: claim unwinds unpublished

  joiner.join();
  EXPECT_TRUE(joinerOwned.load());
  EXPECT_GE(store.stats().flightUnclaims, 1);
  // The recomputed verdict is available normally.
  const auto e = store.loadCheck(key, 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->result, smt::CheckResult::Unsat);
}

TEST(SingleFlight, BudgetInsufficientPublishPromotesTheJoiner) {
  smt::PersistentVerdictStore store;
  const auto key = checkKey(store, "starved");

  auto winner = store.claimCheck(key, /*stepLimit=*/5, nullptr);
  ASSERT_TRUE(winner.claim.owned());

  std::thread joiner([&] {
    // Unlimited-budget caller: the winner's exhausted verdict (recorded
    // under limit 5) fails the provenance guard, so this thread must come
    // back OWNING the claim to recompute under its own budget — joins are
    // served through the same budget guard as any cache hit.
    auto c = store.claimCheck(key, /*stepLimit=*/0, nullptr);
    EXPECT_TRUE(c.claim.owned());
    EXPECT_FALSE(c.served.has_value());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  smt::VerdictEntry starved;
  starved.result = smt::CheckResult::Unknown;
  starved.tier = 2;
  starved.complete = false;
  starved.steps = 5;  // exhausted at limit 5
  store.storeCheck(key, starved);

  joiner.join();
  // A budget-5 caller, by contrast, IS satisfied by the starved entry.
  const auto e = store.loadCheck(key, 5);
  ASSERT_TRUE(e.has_value());
  EXPECT_FALSE(e->complete);
}

TEST(SingleFlight, WaitingJoinerHonorsCancellation) {
  smt::PersistentVerdictStore store;
  const auto key = checkKey(store, "stalled");
  auto winner = store.claimCheck(key, 0, nullptr);
  ASSERT_TRUE(winner.claim.owned());

  support::CancelToken cancel;
  cancel.armDeadline(60);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)store.claimCheck(key, 0, &cancel), support::Cancelled);
  const auto waited = std::chrono::steady_clock::now() - t0;
  // Bounded waits poll the token: a stalled winner cannot wedge a joiner
  // past its own deadline (generous ceiling for slow CI machines).
  EXPECT_LT(waited, std::chrono::seconds(5));
}

TEST(SingleFlight, TaskClaimsJoinAndUnclaimLikeCheckClaims) {
  smt::PersistentVerdictStore store;
  const auto key = contentKeyOf(store.interner(), smt::KeyKind::Pair,
                                {"base"}, {"probe1", "probe2"});

  auto winner = store.claimTask(key, 0, nullptr);
  ASSERT_TRUE(winner.claim.owned());
  ASSERT_FALSE(winner.served.has_value());

  std::optional<smt::PersistentVerdictStore::TaskRecord> joined;
  std::thread joiner([&] {
    auto c = store.claimTask(key, 0, nullptr);
    ASSERT_TRUE(c.served.has_value());
    EXPECT_FALSE(c.claim.owned());
    joined = c.served;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  smt::PersistentVerdictStore::TaskRecord rec;
  rec.pairSafe = true;
  rec.tiers = {2, 2};
  rec.exhausted = {0, 0};
  rec.steps = {4, 9};
  store.storeTask(key, rec);

  joiner.join();
  ASSERT_TRUE(joined.has_value());
  EXPECT_TRUE(joined->pairSafe);
  EXPECT_EQ(joined->steps, (std::vector<long long>{4, 9}));
}

// Two different keys whose digests collide are separate flights: the
// second claims at once instead of joining (or waiting on) the first, and
// each publish serves only its own key.
TEST(SingleFlight, DigestCollisionClaimsSeparately) {
  smt::PersistentVerdictStore store;
  const auto a = checkKey(store, "=1*i#0+0");
  const auto b = withDigest(checkKey(store, "=1*j#0+0"), a.digest);
  ASSERT_NE(a, b);
  // A deadline turns a wrongful wait into a failure instead of a hang.
  support::CancelToken cancel;
  cancel.armDeadline(5000);

  auto ca = store.claimCheck(a, 0, &cancel);
  ASSERT_TRUE(ca.claim.owned());
  auto cb = store.claimCheck(b, 0, &cancel);
  ASSERT_TRUE(cb.claim.owned());
  EXPECT_FALSE(cb.served.has_value());
  store.storeCheck(a, unsatEntry());
  EXPECT_FALSE(store.loadCheck(b, 0).has_value());
  smt::VerdictEntry sat = unsatEntry();
  sat.result = smt::CheckResult::Sat;
  store.storeCheck(b, sat);
  EXPECT_EQ(store.loadCheck(a, 0)->result, smt::CheckResult::Unsat);
  EXPECT_EQ(store.loadCheck(b, 0)->result, smt::CheckResult::Sat);

  const auto ta = contentKeyOf(store.interner(), smt::KeyKind::Pair,
                               {"base"}, {"=1*q#0+0"});
  const auto tb = withDigest(contentKeyOf(store.interner(), smt::KeyKind::Pair,
                                          {"base"}, {"=1*r#0+0"}),
                             ta.digest);
  auto cta = store.claimTask(ta, 0, &cancel);
  ASSERT_TRUE(cta.claim.owned());
  auto ctb = store.claimTask(tb, 0, &cancel);
  ASSERT_TRUE(ctb.claim.owned());
  EXPECT_FALSE(ctb.served.has_value());
  EXPECT_EQ(store.stats().flightJoins, 0);
}

// ---------------------------------------------------------------------------
// End to end: concurrent identical analyses over one shared store perform
// exactly one cold run's worth of fresh work, byte-identically.

struct Analyzed {
  std::unique_ptr<ir::Kernel> kernel;
  core::KernelAnalysis analysis;
};

std::string reportOf(const Analyzed& a) {
  return core::describe(a.analysis, false) + core::describeTiers(a.analysis);
}

Analyzed analyzeStencil(smt::PersistentVerdictStore* store) {
  const auto spec = kernels::stencilSpec(4);
  driver::DriverOptions opts;
  opts.verdictStore = store;
  auto kernel = parser::parseKernel(spec.source);
  auto analysis = driver::analyze(*kernel, spec.independents, spec.dependents,
                                  opts);
  return {std::move(kernel), std::move(analysis)};
}

TEST(SingleFlight, ConcurrentIdenticalAnalysesDoOneColdRunOfFreshWork) {
  // Reference: one serial cold run on a private store.
  smt::PersistentVerdictStore refStore;
  const Analyzed ref = analyzeStencil(&refStore);
  const std::string refReport = reportOf(ref);
  const long long uniqueTasks = ref.analysis.tasksPersisted();
  const long long uniqueChecks = ref.analysis.freshSolverChecks();
  ASSERT_GT(uniqueTasks, 0);
  ASSERT_GT(uniqueChecks, 0);

  // 8 threads race the identical analysis against one cold shared store.
  smt::PersistentVerdictStore store;
  constexpr int kRuns = 8;
  std::vector<Analyzed> runs(kRuns);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRuns; ++r)
    threads.emplace_back([&runs, &store, r] { runs[r] = analyzeStencil(&store); });
  for (auto& t : threads) t.join();

  long long persisted = 0, fresh = 0;
  for (const auto& run : runs) {
    EXPECT_EQ(reportOf(run), refReport);  // byte-identical under racing
    persisted += run.analysis.tasksPersisted();
    fresh += run.analysis.freshSolverChecks();
    // Accounting closes: every task was spliced, joined, or persisted.
    EXPECT_EQ(run.analysis.tasksSpliced() + run.analysis.tasksJoined() +
                  run.analysis.tasksPersisted(),
              ref.analysis.tasksSpliced() + ref.analysis.tasksJoined() +
                  ref.analysis.tasksPersisted());
  }
  // The single-flight guarantee: ACROSS ALL EIGHT racing runs, each unique
  // conjunction was evaluated exactly once — total fresh work equals one
  // cold run, duplicates joined instead of recomputing.
  EXPECT_EQ(persisted, uniqueTasks);
  EXPECT_EQ(fresh, uniqueChecks);
  EXPECT_EQ(store.stats().taskStores, uniqueTasks);
  EXPECT_EQ(store.stats().flightUnclaims, 0);
}

}  // namespace
