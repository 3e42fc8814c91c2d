#include "formad/scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "smt/diskcache.h"
#include "smt/fingerprint.h"
#include "support/cancel.h"
#include "support/pool.h"

namespace formad::core {

using smt::CheckResult;
using smt::Constraint;
using smt::LinExpr;

namespace {

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The serial walk's duplicate-pair cache key: identical index expressions
/// under the same context share one solver verdict.
std::string pairKeyOf(int ctx, const QuestionPair& p) {
  std::string k = std::to_string(ctx);
  k += '|';
  k += p.primedWrite.key();
  k += '|';
  k += p.other.key();
  for (size_t d = 0; d < p.primedDims.size(); ++d) {
    k += '|';
    k += p.primedDims[d].key();
    k += '~';
    k += p.otherDims[d].key();
  }
  return k;
}

}  // namespace

QueryScheduler::QueryScheduler(const RegionModel& model,
                               const ExploitOptions& opts)
    : model_(model), opts_(opts) {
  auto t0 = std::chrono::steady_clock::now();
  plan();
  planSeconds_ = secondsSince(t0);
}

void QueryScheduler::plan() {
  // Group knowledge and questions by context, in the same order the serial
  // walk sees them.
  std::map<int, std::vector<const KnowledgeAssertion*>> knowledgeAt;
  for (const auto& k : model_.knowledge) knowledgeAt[k.context].push_back(&k);

  struct Q {
    const QuestionPair* pair;
    size_t varIndex;
  };
  std::map<int, std::vector<Q>> questionsAt;
  for (size_t vi = 0; vi < model_.questions.size(); ++vi)
    for (const auto& p : model_.questions[vi].pairs)
      questionsAt[p.context].push_back(Q{&p, vi});

  // Content-key deriver shared by the whole plan: base deltas and probes
  // all come from one memo over the region's atoms.
  smt::Fingerprinter fp(*model_.atoms);
  // Task keys are built only when a store is attached, from the store's
  // interner — fault injection disables the store outright, since injected
  // verdicts are not pure functions of the conjunction and must never be
  // persisted.
  smt::ConstraintInterner* interner =
      opts_.store != nullptr && opts_.faultInject == nullptr
          ? &opts_.store->interner()
          : nullptr;
  // Digest of one constraint; with a store, also its interned key.
  auto keyOf = [&](const Constraint& c,
                   const smt::InternedConstraint*& interned) {
    std::string key = fp.constraintKey(c);
    if (interner == nullptr) return smt::constraintDigest(key);
    interned = interner->intern(std::move(key));
    return interned->digest;
  };

  // The base prefix tree. Node 0 is the root assertion — two threads never
  // share a loop-counter value — and every knowledge assertion the DFS
  // pushes becomes a child node, so a context path IS a tree path and
  // sibling tasks share their prefix structurally (no per-task copies).
  auto appendBase = [&](int parent, Constraint delta) {
    BaseNode n;
    n.parent = parent;
    const smt::ContentDigest d = keyOf(delta, n.deltaKey);
    n.delta = std::move(delta);
    if (parent >= 0) {
      const BaseNode& p = bases_[static_cast<size_t>(parent)];
      n.depth = p.depth;
      n.sum = p.sum;
    }
    ++n.depth;
    n.sum += d;
    bases_.push_back(std::move(n));
    return static_cast<int>(bases_.size()) - 1;
  };
  int current =
      appendBase(-1, Constraint::ne(LinExpr::atom(model_.counterPrimeAtom),
                                    LinExpr::atom(model_.counterAtom)));
  // Absint invariants sit right below the root, shared by every task in
  // the region (switchBase never pops past them). They are sound by
  // construction — no Consistency tasks are emitted for them; the dynamic
  // oracle in tests/test_absint.cpp cross-checks the analyzer instead.
  for (const auto& inv : model_.invariants) current = appendBase(current, inv);

  std::map<std::string, int> taskByPairKey;

  // Depth-first pre-order over the context tree — the exact order of the
  // paper's recursive walk. The emitted schedule_ is a linearization of
  // that walk; replay processes it front to back.
  std::function<void(int)> dfs = [&](int ctx) {
    int saved = current;
    for (const auto* k : knowledgeAt[ctx]) {
      current = appendBase(current, Constraint::ne(k->primed, k->other));
      if (opts_.checkKnowledgeConsistency) {
        QueryTask t;
        t.kind = QueryTask::Kind::Consistency;
        t.baseId = current;
        tasks_.push_back(std::move(t));
        Step s;
        s.op = Step::Op::Consistency;
        s.taskIndex = static_cast<int>(tasks_.size()) - 1;
        s.array = k->array;
        schedule_.push_back(std::move(s));
      }
    }
    for (const auto& q : questionsAt[ctx]) {
      std::string key = pairKeyOf(ctx, *q.pair);
      auto it = taskByPairKey.find(key);
      int taskIndex;
      if (it != taskByPairKey.end()) {
        taskIndex = it->second;
      } else {
        QueryTask t;
        t.kind = QueryTask::Kind::Pair;
        t.baseId = current;
        t.probes.push_back(Constraint::eq(q.pair->primedWrite, q.pair->other));
        if (opts_.useDimensionRule)
          for (size_t d = 0; d < q.pair->primedDims.size(); ++d)
            t.probes.push_back(
                Constraint::eq(q.pair->primedDims[d], q.pair->otherDims[d]));
        t.probeDigests.reserve(t.probes.size());
        for (const auto& probe : t.probes) {
          const smt::InternedConstraint* interned = nullptr;
          t.probeDigests.push_back(keyOf(probe, interned));
          if (interned != nullptr) t.key.probes.push_back(interned);
        }
        tasks_.push_back(std::move(t));
        taskIndex = static_cast<int>(tasks_.size()) - 1;
        taskByPairKey.emplace(key, taskIndex);
      }
      Step s;
      s.op = Step::Op::Question;
      s.taskIndex = taskIndex;
      s.varIndex = q.varIndex;
      s.pair = q.pair;
      s.pairKey = std::move(key);
      schedule_.push_back(std::move(s));
    }
    for (int child : model_.contexts.node(ctx).children) dfs(child);
    current = saved;
  };
  dfs(model_.contexts.root());

  if (interner == nullptr) return;
  // Each base's conjunction in canonical order, derived along the prefix
  // tree: a node's list is its parent's with the delta's handle inserted at
  // its canonical position — one O(depth) copy of handles per node, never
  // a sort. Parents precede children in bases_.
  std::vector<std::vector<const smt::InternedConstraint*>> canonical(
      bases_.size());
  for (size_t id = 0; id < bases_.size(); ++id) {
    const BaseNode& n = bases_[id];
    auto& out = canonical[id];
    out.reserve(n.depth);
    if (n.parent >= 0) {
      const auto& in = canonical[static_cast<size_t>(n.parent)];
      auto at = std::upper_bound(in.begin(), in.end(), n.deltaKey,
                                 smt::canonicalLess);
      out.assign(in.begin(), at);
      out.push_back(n.deltaKey);
      out.insert(out.end(), at, in.end());
    } else {
      out.push_back(n.deltaKey);
    }
  }
  // A task's key folds its base's digest sum and depth with the kind, the
  // absint salt (hints change tier attribution without changing the
  // conjunction, and records store tiers) and the ordered probe digests —
  // O(probes) per task.
  for (auto& t : tasks_) {
    const BaseNode& bn = bases_[static_cast<size_t>(t.baseId)];
    t.key.kind = t.kind == QueryTask::Kind::Consistency
                     ? smt::KeyKind::Consistency
                     : smt::KeyKind::Pair;
    t.key.salt = model_.hints.salt;
    t.key.conjunction = canonical[static_cast<size_t>(t.baseId)];
    t.key.digest = smt::keyDigest(t.key.kind, t.key.salt, bn.sum, bn.depth,
                                  t.probeDigests);
  }
}

std::vector<Constraint> QueryScheduler::baseConjunction(int baseId) const {
  std::vector<Constraint> out;
  for (int id = baseId; id >= 0; id = bases_[static_cast<size_t>(id)].parent)
    out.push_back(bases_[static_cast<size_t>(id)].delta);
  return out;
}

void QueryScheduler::switchBase(smt::Solver& solver, int& cur,
                                int target) const {
  // Find the common ancestor of the current and target base nodes.
  auto depth = [&](int id) {
    return id < 0 ? size_t{0} : bases_[static_cast<size_t>(id)].depth;
  };
  auto parent = [&](int id) { return bases_[static_cast<size_t>(id)].parent; };
  int a = cur, b = target;
  while (depth(a) > depth(b)) a = parent(a);
  while (depth(b) > depth(a)) b = parent(b);
  while (a != b) {
    a = parent(a);
    b = parent(b);
  }
  // Pop down to the ancestor (each base constraint sits in its own push
  // scope, so one pop removes exactly one), then push the missing path.
  while (cur != a) {
    solver.pop();
    cur = parent(cur);
  }
  std::vector<int> path;
  for (int id = target; id != a; id = parent(id)) path.push_back(id);
  for (auto it = path.rbegin(); it != path.rend(); ++it) {
    solver.push();
    solver.add(bases_[static_cast<size_t>(*it)].delta);
    cur = *it;
  }
}

QueryResult QueryScheduler::evaluate(smt::Solver& solver, int& cur,
                                     const QueryTask& task) const {
  auto t0 = std::chrono::steady_clock::now();
  switchBase(solver, cur, task.baseId);

  QueryResult r;
  r.evaluated = true;
  // Step provenance per check: steps a complete verdict consumed, or the
  // limit an exhausted one ran out at (what sufficientFor needs to govern
  // a later run splicing the persisted record).
  auto recordCheck = [&] {
    r.tiers.push_back(solver.lastCheckTier());
    const bool exhausted = solver.lastCheckBudgetExhausted();
    r.exhausted.push_back(exhausted ? 1 : 0);
    r.stepsUsed.push_back(exhausted ? solver.stepBudget()
                                    : solver.lastCheckSteps());
  };
  if (task.kind == QueryTask::Kind::Consistency) {
    r.unsat = solver.check() == CheckResult::Unsat;
    r.checksPerformed = 1;
    recordCheck();
  } else {
    // The serial walk checks the flattened offsets first, then — under the
    // in-bounds assumption — each dimension, stopping at the first Unsat.
    for (const auto& probe : task.probes) {
      solver.push();
      solver.add(probe);
      bool unsat = solver.check() == CheckResult::Unsat;
      recordCheck();
      solver.pop();
      ++r.checksPerformed;
      if (unsat) {
        r.pairSafe = true;
        break;
      }
    }
  }
  r.seconds = secondsSince(t0);
  return r;
}

RegionVerdict QueryScheduler::replay(
    const std::function<const QueryResult&(int)>& getResult) const {
  RegionVerdict verdict;
  verdict.loop = model_.loop;
  verdict.modelAssertions = model_.modelSize();
  verdict.absintFacts = model_.absintFacts;
  verdict.uniqueExprs = model_.uniqueExprs;
  verdict.statementsInRegion = model_.statementsInRegion;
  for (const auto& vq : model_.questions) {
    VarVerdict vv;
    vv.var = vq.var;
    vv.safe = true;
    if (opts_.siteVerdicts) {
      // Seed one (initially safe) verdict per distinct primal site, in
      // first-appearance order over the variable's pairs — a pure function
      // of the model, so the export is width-independent like everything
      // else replay produces.
      std::set<const ir::Expr*> seen;
      for (const auto& p : vq.pairs)
        for (const ir::Expr* site : p.sites)
          if (seen.insert(site).second) {
            SiteVerdict sv;
            sv.site = site;
            vv.sites.push_back(std::move(sv));
          }
    }
    verdict.vars.push_back(std::move(vv));
  }

  // The serial solver's verdict cache, replayed symbolically: a check whose
  // stack fingerprint was already seen would have been a cache hit; the
  // first occurrence is attributed to the tier that decided it (a pure
  // function of the conjunction, so the breakdown is width-independent).
  // A stack's conjunction is base ∪ {probe}. Knowledge base constraints
  // are all disequalities and probes all equalities; the only equality
  // bases are absint invariants, which mention fresh `__ai_*` atoms that no
  // question probe can contain. So no probe can equal a base constraint and
  // the pair (base content, probe) identifies the conjunction. Base content
  // is identified by the node's order-independent digest sum + depth and
  // the probe by its digest, both derived at plan time: equal conjunctions
  // always map to equal pairs, and a 128-bit collision between distinct
  // ones could only skew these diagnostic counters, never a verdict.
  using BaseContent = std::pair<smt::ContentDigest, size_t>;
  std::map<BaseContent, int> contentIds;
  auto baseContentId = [&](int baseId) {
    const BaseNode& n = bases_[static_cast<size_t>(baseId)];
    return contentIds
        .emplace(BaseContent{n.sum, n.depth},
                 static_cast<int>(contentIds.size()))
        .first->second;
  };
  std::set<std::pair<int, smt::ContentDigest>> seenStacks;
  auto accountChecks = [&](const QueryTask& task, const QueryResult& res) {
    const int base = baseContentId(task.baseId);
    for (int i = 0; i < res.checksPerformed; ++i) {
      const smt::ContentDigest probe =
          task.kind == QueryTask::Kind::Pair
              ? task.probeDigests[static_cast<size_t>(i)]
              : smt::ContentDigest{};
      ++verdict.queries;
      if (!seenStacks.emplace(base, probe).second) {
        ++verdict.solverCacheHits;
        continue;
      }
      const int tier = static_cast<size_t>(i) < res.tiers.size()
                           ? res.tiers[static_cast<size_t>(i)]
                           : 2;
      if (tier == 0)
        ++verdict.tier0Hits;
      else if (tier == 1)
        ++verdict.tier1Hits;
      else
        ++verdict.tier2Checks;
      if (static_cast<size_t>(i) < res.exhausted.size() &&
          res.exhausted[static_cast<size_t>(i)] != 0)
        ++verdict.budgetExhaustedChecks;
    }
  };

  // Per-pair replay outcome: the verdict plus why (empty reason = the
  // classic "possible overlap"; otherwise a governance degradation).
  struct PairOutcome {
    bool safe = false;
    std::string reason;
  };
  std::map<std::string, PairOutcome> pairVerdicts;
  for (const auto& step : schedule_) {
    if (step.op == Step::Op::Consistency) {
      const QueryResult& res = getResult(step.taskIndex);
      // A consistency probe that cancellation stopped skips silently:
      // claiming a contradiction it did not prove would be unsound, and
      // the safeguard still holds wherever evaluation did run.
      if (!res.evaluated) continue;
      accountChecks(tasks_[static_cast<size_t>(step.taskIndex)], res);
      if (res.unsat) {
        // Satisfiability safeguard (paper Sec. 5.5): the knowledge itself
        // is contradictory, so every disjointness "proof" below it would be
        // vacuous. Record the contradiction, distrust the whole region, and
        // let the caller decide whether it is fatal.
        verdict.knowledgeContradiction =
            "knowledge base unsatisfiable after asserting the disjointness "
            "of the primal writes to array '" +
            step.array +
            "': the primal parallel loop has a data race (or the extracted "
            "model is inconsistent)";
        for (auto& v : verdict.vars) {
          v.safe = false;
          // Site verdicts below a contradiction would be vacuous — force
          // the whole-variable fallback on every variable.
          v.sitelessUnsafe = true;
          for (auto& sv : v.sites) sv.safe = false;
        }
        break;
      }
      continue;
    }
    VarVerdict& vv = verdict.vars[step.varIndex];
    // Early exit per variable (paper Sec. 7.5). Site-verdict mode keeps
    // going: every pair must be answered so proven-disjoint sites of an
    // unsafe variable can stay plainly shared under the hybrid safeguard.
    if (!vv.safe && !opts_.siteVerdicts) continue;
    ++vv.pairsTested;
    PairOutcome outcome;
    auto cached = pairVerdicts.find(step.pairKey);
    if (cached != pairVerdicts.end()) {
      ++verdict.pairCacheHits;
      outcome = cached->second;
    } else {
      const QueryResult& res = getResult(step.taskIndex);
      accountChecks(tasks_[static_cast<size_t>(step.taskIndex)], res);
      if (!res.evaluated) {
        // Cancellation (deadline or task failure) stopped this task before
        // it ran: degrade to unsafe — the atomic adjoint stays, which is
        // always sound.
        outcome.reason = "cancelled";
        ++verdict.degradedPairs;
      } else {
        outcome.safe = res.pairSafe;
        if (!res.pairSafe) {
          for (char e : res.exhausted)
            if (e != 0) {
              outcome.reason = "step budget exhausted";
              ++verdict.degradedPairs;
              break;
            }
        }
      }
      pairVerdicts.emplace(step.pairKey, outcome);
    }
    if (!outcome.safe) {
      if (vv.safe) {
        vv.safe = false;
        vv.unsafeReason = outcome.reason;
        vv.firstUnsafePair = model_.atoms->render(step.pair->primedWrite) +
                             " == " + model_.atoms->render(step.pair->other);
      }
      if (opts_.siteVerdicts) {
        if (step.pair->sites.empty()) vv.sitelessUnsafe = true;
        for (const ir::Expr* site : step.pair->sites)
          for (auto& sv : vv.sites)
            if (sv.site == site && sv.safe) {
              sv.safe = false;
              sv.unsafeReason = outcome.reason;
              sv.firstUnsafePair =
                  model_.atoms->render(step.pair->primedWrite) + " == " +
                  model_.atoms->render(step.pair->other);
            }
      }
    }
  }
  return verdict;
}

RegionVerdict QueryScheduler::run(support::SharedAnalysisPool::Client* pool,
                                  support::CancelToken* cancel) {
  auto t0 = std::chrono::steady_clock::now();
  const int width = pool != nullptr ? pool->width() : 1;

  // Fault injection disables persistence entirely: an injected verdict is
  // not a pure function of its conjunction, so it must neither be served
  // from nor written to a cross-run store. Without the caller's store, the
  // solvers share a memory-only store of this run instead; task records
  // go to the caller's store only.
  smt::PersistentVerdictStore* store =
      opts_.faultInject == nullptr ? opts_.store : nullptr;
  std::optional<smt::PersistentVerdictStore> runStore;
  smt::PersistentVerdictStore* checkStore =
      store != nullptr ? store : &runStore.emplace();
  std::vector<QueryResult> results(tasks_.size());
  std::vector<char> spliced(tasks_.size(), 0);
  long long splicedCount = 0;
  RegionVerdict verdict;
  double replaySeconds = 0.0;

  // Incremental splice: serve whole task outcomes persisted by earlier
  // runs for conjunctions whose keys did not move. A spliced task
  // is marked evaluated, so neither evaluation mode touches a solver for
  // it — the steady-state warm run does no solver work at all. Replay
  // consumes spliced and fresh results identically (both are pure
  // functions of conjunction + budget), keeping the report byte-identical
  // to a cold run at any width. The eager parallel path splices every
  // planned task up front; the lazy serial path splices on demand (replay
  // skips whole variables once one pair proves unsafe, and a task that is
  // never demanded is never evaluated or persisted, so looking it up
  // every run would be a guaranteed store miss).
  auto adoptRecord = [&](size_t i,
                         smt::PersistentVerdictStore::TaskRecord&& rec) {
    QueryResult& r = results[i];
    r.evaluated = true;
    r.unsat = rec.unsat;
    r.pairSafe = rec.pairSafe;
    r.checksPerformed = static_cast<int>(rec.tiers.size());
    r.tiers = std::move(rec.tiers);
    r.exhausted = std::move(rec.exhausted);
    r.stepsUsed = std::move(rec.steps);
  };
  auto spliceTask = [&](size_t i) {
    if (store == nullptr) return;
    auto rec = store->loadTask(tasks_[i].key, opts_.solverSteps);
    if (!rec) return;
    adoptRecord(i, std::move(*rec));
    spliced[i] = 1;
    ++splicedCount;
  };

  // Gathers per-solver stats into the verdict's cache diagnostics (fresh =
  // not served by the store; tier-2 fresh = full solves).
  auto addSolverStats = [&](const smt::Solver& s) {
    const auto& st = s.stats();
    verdict.checkCacheHits += st.cacheHits;
    verdict.freshSolverChecks += st.checks - st.cacheHits;
    verdict.freshTier2Solves += st.checks - st.cacheHits - st.fastpathTier0 -
                                st.fastpathTier1;
  };

  // Single-flight evaluation of one fresh (non-spliced) task. With a store
  // attached, the task key is claimed before any solver work: a
  // conjunction another worker or session is computing right now is
  // *joined* (its published record adopted — accounted exactly like a
  // splice, since both are pure functions of conjunction + budget), and a
  // task evaluated here is published the moment it completes, resolving
  // the claim, so concurrent joiners wait for one task rather than a whole
  // run. If evaluate() unwinds (deadline, cancellation, fault), the
  // claim's destructor unclaims and the next joiner recomputes — a failed
  // winner can delay duplicates, never poison or hang them.
  std::atomic<long long> joinedCount{0};
  std::atomic<long long> persistedCount{0};
  auto claimEvaluate = [&](smt::Solver& solver, int& atBase, size_t i) {
    if (store == nullptr) {
      results[i] = evaluate(solver, atBase, tasks_[i]);
      return;
    }
    auto flight = store->claimTask(tasks_[i].key, opts_.solverSteps, cancel);
    if (flight.served) {
      adoptRecord(i, std::move(*flight.served));
      joinedCount.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    results[i] = evaluate(solver, atBase, tasks_[i]);
    smt::PersistentVerdictStore::TaskRecord rec;
    rec.unsat = results[i].unsat;
    rec.pairSafe = results[i].pairSafe;
    rec.tiers = results[i].tiers;
    rec.exhausted = results[i].exhausted;
    rec.steps = results[i].stepsUsed;
    store->storeTask(tasks_[i].key, rec);
    persistedCount.fetch_add(1, std::memory_order_relaxed);
  };

  if (width > 1 && tasks_.size() > 1) {
    // Eager speculative evaluation over prefix-sharing batches: tasks are
    // grouped into contiguous runs of the canonical plan order (the DFS
    // emits tasks of one context consecutively, so a batch's tasks share
    // long base prefixes), and each worker walks between bases with
    // incremental push/pop on its thread-confined solver instead of
    // rebuilding the stack per task. All workers share the verdict store.
    // Several batches per worker keep the pool's dynamic self-scheduling
    // effective on uneven batch costs.
    for (size_t i = 0; i < tasks_.size(); ++i) spliceTask(i);
    const size_t nBatches =
        std::min(tasks_.size(), static_cast<size_t>(width) * 8);
    std::vector<std::unique_ptr<smt::Solver>> solvers;
    std::vector<int> atBase(static_cast<size_t>(width), -1);
    solvers.reserve(static_cast<size_t>(width));
    for (int w = 0; w < width; ++w) {
      solvers.push_back(std::make_unique<smt::Solver>(*model_.atoms));
      solvers.back()->attachStore(checkStore);
      solvers.back()->setFastPathMode(opts_.fastpath);
      solvers.back()->setStepBudget(opts_.solverSteps);
      solvers.back()->setCancelToken(cancel);
      solvers.back()->setFaultInjection(opts_.faultInject);
      solvers.back()->setAbsintHints(&model_.hints);
    }
    pool->run(
        nBatches,
        [&](size_t b, int w) {
          const size_t lo = b * tasks_.size() / nBatches;
          const size_t hi = (b + 1) * tasks_.size() / nBatches;
          smt::Solver& solver = *solvers[static_cast<size_t>(w)];
          for (size_t i = lo; i < hi; ++i) {
            if (results[i].evaluated) continue;  // spliced from the store
            if (cancel != nullptr && cancel->cancelled()) return;
            try {
              claimEvaluate(solver, atBase[static_cast<size_t>(w)], i);
            } catch (const support::Cancelled&) {
              // The token fired mid-check. The unwind may have skipped
              // pops, so this worker's solver stack no longer matches its
              // atBase trail — abandon the batch (the pool skips every
              // later claim once the token is set, so the solver is never
              // touched again). The task stays unevaluated; replay
              // degrades it.
              results[i] = QueryResult{};
              return;
            }
          }
        },
        cancel);
    auto tReplay = std::chrono::steady_clock::now();
    // replay() rebuilds the verdict value; keep the cache diagnostics
    // accumulated so far and restore them after.
    const RegionVerdict diag = verdict;
    verdict = replay([&](int i) -> const QueryResult& {
      return results[static_cast<size_t>(i)];
    });
    verdict.tasksSpliced = splicedCount;
    verdict.tasksJoined = joinedCount.load(std::memory_order_relaxed);
    verdict.tasksPersisted = persistedCount.load(std::memory_order_relaxed);
    replaySeconds = secondsSince(tReplay);
    verdict.threadsUsed = width;
    for (const auto& s : solvers) addSolverStats(*s);
  } else {
    // Lazy evaluation: tasks run on demand during replay over ONE
    // persistent incremental trail (replay demands tasks in canonical DFS
    // order, so consecutive demands share long prefixes too), reproducing
    // the serial walk's exact work profile — skipped tasks are never
    // evaluated.
    smt::Solver solver(*model_.atoms);
    solver.attachStore(checkStore);
    solver.setFastPathMode(opts_.fastpath);
    solver.setStepBudget(opts_.solverSteps);
    solver.setCancelToken(cancel);
    solver.setFaultInjection(opts_.faultInject);
    solver.setAbsintHints(&model_.hints);
    int atBase = -1;
    double evalSeconds = 0.0;
    bool abandoned = false;  // solver stack desynced by a mid-check cancel
    const RegionVerdict diag = verdict;
    verdict = replay([&](int i) -> const QueryResult& {
      QueryResult& r = results[static_cast<size_t>(i)];
      if (!r.evaluated) spliceTask(static_cast<size_t>(i));
      if (!r.evaluated && !abandoned &&
          (cancel == nullptr || !cancel->poll())) {
        try {
          claimEvaluate(solver, atBase, static_cast<size_t>(i));
          evalSeconds += r.seconds;
        } catch (const support::Cancelled&) {
          abandoned = true;
          r = QueryResult{};
        }
      }
      return r;
    });
    verdict.tasksSpliced = splicedCount;
    verdict.tasksJoined = joinedCount.load(std::memory_order_relaxed);
    verdict.tasksPersisted = persistedCount.load(std::memory_order_relaxed);
    replaySeconds = secondsSince(t0) - evalSeconds;
    verdict.threadsUsed = 1;
    addSolverStats(solver);
  }

  verdict.taskSeconds.reserve(results.size());
  for (const auto& r : results) verdict.taskSeconds.push_back(r.seconds);
  verdict.planSeconds = planSeconds_ + replaySeconds;
  verdict.analysisSeconds = planSeconds_ + secondsSince(t0);
  return verdict;
}

}  // namespace formad::core
