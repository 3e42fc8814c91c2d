// Content-key stability and persistent-store durability (the -cache-dir
// layer): golden context fingerprints for the paper kernels,
// interning-order independence of the keys, edit locality, scheduler task
// keys against a from-scratch derivation, digest collisions costing a miss
// in every layer, and recovery from corrupt/truncated/old-format cache
// files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/activity.h"
#include "analysis/symbols.h"
#include "driver/driver.h"
#include "formad/formad.h"
#include "formad/knowledge.h"
#include "formad/scheduler.h"
#include "helpers.h"
#include "ir/traversal.h"
#include "kernels/gfmc.h"
#include "kernels/greengauss.h"
#include "kernels/lbm.h"
#include "kernels/stencil.h"
#include "parser/parser.h"
#include "smt/diskcache.h"
#include "smt/fingerprint.h"

namespace {

using namespace formad;
namespace fs = std::filesystem;
using formad::testing::contentKeyOf;
using formad::testing::withDigest;

/// contextFingerprints of every parallel region of `source`, in region
/// order.
std::vector<std::map<int, std::string>> regionFingerprints(
    const std::string& source, const std::vector<std::string>& independents,
    const std::vector<std::string>& dependents) {
  auto kernel = parser::parseKernel(source);
  auto syms = analysis::verifyKernel(*kernel);
  auto act =
      analysis::computeActivity(*kernel, syms, independents, dependents);
  std::vector<std::map<int, std::string>> out;
  ir::forEachStmt(kernel->body, [&](const ir::Stmt& s) {
    if (s.kind() != ir::StmtKind::For || !s.as<ir::For>().parallel) return;
    auto model =
        core::buildRegionModel(*kernel, s.as<ir::For>(), syms, act);
    out.push_back(core::contextFingerprints(model));
  });
  return out;
}

/// Temp store directory, removed on scope exit.
struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag)
      : path(fs::temp_directory_path() /
             (std::string("formad_fp_") + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

// The kernel behind the edit-locality tests: two branch contexts, each
// writing u at two DIFFERENT offsets (knowledge constraints normalize to
// the primed-other difference, so a lone uniform offset would cancel out).
const char* kLocalityKernel =
    "kernel loc(n: int in, u: real[] inout, v: real[] in, c: int[] in) {\n"
    "  parallel for i = 0 : n - 1 : 4 {\n"
    "    if (c[i] % 2 == 0) {\n"
    "      u[i] += v[i];\n"
    "      u[i + 1] += v[i];\n"
    "    } else {\n"
    "      u[i + 2] += v[i];\n"
    "      u[i + 5] += v[i];\n"
    "    }\n"
    "  }\n"
    "}\n";

// Golden digests: any change here means every persisted cache in the wild
// silently misses (fine) or the canonicalization broke (not fine) — bump
// consciously, never casually.
TEST(Fingerprint, GoldenPaperKernels) {
  const auto stencil = kernels::stencilSpec(2);
  auto fps = regionFingerprints(stencil.source, stencil.independents,
                                stencil.dependents);
  ASSERT_EQ(fps.size(), 1u);
  EXPECT_EQ(fps[0], (std::map<int, std::string>{
                        {0, "ffe58d629703e7aee16c8329031a7dd0"}}));

  const auto gfmc = kernels::gfmcSplitSpec();
  fps = regionFingerprints(gfmc.source, gfmc.independents, gfmc.dependents);
  ASSERT_EQ(fps.size(), 2u);
  EXPECT_EQ(fps[0], (std::map<int, std::string>{
                        {1, "064ec0d5b308a18a128796bf9bc216bb"}}));
  EXPECT_EQ(fps[1], (std::map<int, std::string>{
                        {1, "006e6fb4584c5a0ca5138b95fba8ca37"}}));

  const auto gg = kernels::greenGaussSpec();
  fps = regionFingerprints(gg.source, gg.independents, gg.dependents);
  ASSERT_EQ(fps.size(), 1u);
  EXPECT_EQ(fps[0], (std::map<int, std::string>{
                        {1, "de1a826fae4f03155e12c6877bf3e77c"}}));
}

TEST(Fingerprint, GoldenDigestPrimitives) {
  // Pins the per-constraint digest (two seeded, finalized FNV-1a halves)...
  EXPECT_EQ(smt::constraintDigest("").hex(),
            "f52a15e9a9b5e89be220a8397b1dcdaf");
  EXPECT_EQ(smt::constraintDigest("=1*i#0+0").hex(),
            "9d351d38534418cb35668f5b34c0b963");
  // ...and the key digest folded over digest sums.
  smt::ConstraintInterner interner;
  const auto key =
      contentKeyOf(interner, smt::KeyKind::Check, {"=1*i#0+0", "!1*j#0+0"});
  EXPECT_EQ(key.digest.hex(), "49c806f6ff2dd25b174251f7b82186ba");
  // The digest is the key digest of the per-constraint digest SUM, and the
  // canonical form lists the keys in digest order.
  smt::ContentDigest sum = smt::constraintDigest("=1*i#0+0");
  sum += smt::constraintDigest("!1*j#0+0");
  EXPECT_EQ(key.digest, smt::keyDigest(smt::KeyKind::Check, 0, sum, 2, {}));
  EXPECT_EQ(key.canonical(), "c|0000000000000000|=1*i#0+0;!1*j#0+0;");
}

TEST(Fingerprint, StableAcrossIndependentBuilds) {
  const auto spec = kernels::stencilSpec(4);
  const auto a =
      regionFingerprints(spec.source, spec.independents, spec.dependents);
  const auto b =
      regionFingerprints(spec.source, spec.independents, spec.dependents);
  EXPECT_EQ(a, b);
}

TEST(Fingerprint, IndependentOfAtomInterningOrder) {
  // Two tables interning the same atoms in opposite order must produce
  // byte-identical canonical keys — AtomIds are process accidents.
  smt::AtomTable fwd, rev;
  auto i1 = fwd.internVar("i", 0, false);
  auto j1 = fwd.internVar("j", 0, true);
  auto j2 = rev.internVar("j", 0, true);
  auto i2 = rev.internVar("i", 0, false);

  // Each side interns into its own interner, as two processes would.
  auto keyOf = [](smt::AtomTable& t, smt::AtomId i, smt::AtomId j,
                  smt::ConstraintInterner& interner) {
    smt::Fingerprinter fp(t);
    smt::LinExpr e = smt::LinExpr::atom(i);
    e.addTerm(j, smt::Rational(-1));
    std::vector<std::string> parts;
    parts.push_back(fp.constraintKey(smt::Constraint::ne(
        smt::LinExpr::atom(i), smt::LinExpr::atom(j))));
    parts.push_back(
        fp.constraintKey(smt::Constraint{std::move(e), smt::Rel::Eq}));
    return contentKeyOf(interner, smt::KeyKind::Check, parts);
  };
  smt::ConstraintInterner fwdInterner, revInterner;
  const smt::ContentKey a = keyOf(fwd, i1, j1, fwdInterner);
  const smt::ContentKey b = keyOf(rev, i2, j2, revInterner);
  EXPECT_EQ(a.canonical(), b.canonical());
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Fingerprint, ContentKeyIgnoresPartOrder) {
  smt::ConstraintInterner interner;
  const auto abc =
      contentKeyOf(interner, smt::KeyKind::Check, {"b", "a", "c"});
  const auto cab =
      contentKeyOf(interner, smt::KeyKind::Check, {"c", "a", "b"});
  EXPECT_EQ(abc, cab);
  EXPECT_EQ(abc.canonical(), cab.canonical());
  // Kind, salt and probe order are all part of the key.
  EXPECT_NE(contentKeyOf(interner, smt::KeyKind::Pair, {"a"}, {"p", "q"}),
            contentKeyOf(interner, smt::KeyKind::Pair, {"a"}, {"q", "p"}));
  EXPECT_NE(
      contentKeyOf(interner, smt::KeyKind::Pair, {"a"}, {"p", "q"}).digest,
      contentKeyOf(interner, smt::KeyKind::Pair, {"a"}, {"q", "p"}).digest);
  EXPECT_NE(contentKeyOf(interner, smt::KeyKind::Consistency, {"a"}).digest,
            contentKeyOf(interner, smt::KeyKind::Check, {"a"}).digest);
}

TEST(Fingerprint, EditMovesOnlyTheEditedContext) {
  std::string edited = kLocalityKernel;
  const size_t at = edited.find("u[i + 5]");
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, 8, "u[i + 6]");

  const auto base = regionFingerprints(kLocalityKernel, {"v"}, {"u"});
  const auto moved = regionFingerprints(edited, {"v"}, {"u"});
  ASSERT_EQ(base.size(), 1u);
  ASSERT_EQ(moved.size(), 1u);
  ASSERT_EQ(base[0].size(), 2u);  // then-context and else-context
  ASSERT_EQ(moved[0].size(), 2u);
  // The then-branch knowledge never mentions the edited reference: its
  // fingerprint must not move. The else-branch one must.
  EXPECT_EQ(base[0].at(1), moved[0].at(1));
  EXPECT_NE(base[0].at(2), moved[0].at(2));
}

// Every scheduler task key equals a from-scratch derivation: render each
// base and probe constraint with a fresh Fingerprinter, intern, and build
// the key with ContentKey::make (which sorts and sums from nothing). The
// scheduler's keys come from O(1) digest sums and spliced canonical lists
// along its prefix tree; they must agree exactly.
TEST(Fingerprint, SchedulerTaskKeysMatchFromScratchDerivation) {
  const std::vector<kernels::KernelSpec> specs = {
      kernels::stencilSpec(1),   kernels::stencilSpec(8),
      kernels::gfmcSplitSpec(),  kernels::gfmcFusedSpec(),
      kernels::lbmSpec(),        kernels::greenGaussSpec()};
  for (const auto& spec : specs) {
    auto kernel = parser::parseKernel(spec.source);
    auto syms = analysis::verifyKernel(*kernel);
    auto act = analysis::computeActivity(*kernel, syms, spec.independents,
                                         spec.dependents);
    size_t checked = 0;
    ir::forEachStmt(kernel->body, [&](const ir::Stmt& s) {
      if (s.kind() != ir::StmtKind::For || !s.as<ir::For>().parallel) return;
      const auto model =
          core::buildRegionModel(*kernel, s.as<ir::For>(), syms, act);
      smt::PersistentVerdictStore store;
      core::ExploitOptions opts;
      opts.store = &store;
      const core::QueryScheduler sched(model, opts);
      smt::Fingerprinter fp(*model.atoms);
      smt::ConstraintInterner elsewhere;  // a second process's interner
      for (const auto& t : sched.tasks()) {
        std::vector<std::string> conj, probes;
        for (const auto& c : sched.baseConjunction(t.baseId))
          conj.push_back(fp.constraintKey(c));
        for (const auto& p : t.probes) probes.push_back(fp.constraintKey(p));
        const auto kind = t.kind == core::QueryTask::Kind::Consistency
                              ? smt::KeyKind::Consistency
                              : smt::KeyKind::Pair;
        const smt::ContentKey scratch =
            contentKeyOf(store.interner(), kind, conj, probes);
        EXPECT_EQ(t.key, scratch) << spec.name;
        const smt::ContentKey other =
            contentKeyOf(elsewhere, kind, conj, probes);
        EXPECT_EQ(t.key.digest, other.digest) << spec.name;
        EXPECT_EQ(t.key.canonical(), other.canonical()) << spec.name;
        ++checked;
      }
    });
    EXPECT_GT(checked, 0u) << spec.name;
  }
}

// --- persistent store durability ---

TEST(DiskCache, CheckRecordRoundtripAndBudgetGuard) {
  TempDir dir("check");
  // Every load goes through a freshly reopened store, so it reads the
  // record file rather than the writer's memory layer.
  auto load = [&](std::vector<std::string> conj, long long stepLimit) {
    smt::PersistentVerdictStore reopened(dir.path.string());
    return reopened.loadCheck(
        contentKeyOf(reopened.interner(), smt::KeyKind::Check, conj),
        stepLimit);
  };
  smt::PersistentVerdictStore store(dir.path.string());
  const std::vector<std::string> conj = {"!1*i#0'+-1*i#0+0"};
  const auto key = contentKeyOf(store.interner(), smt::KeyKind::Check, conj);

  smt::VerdictEntry complete{smt::CheckResult::Unsat, 2, true, 50};
  store.storeCheck(key, complete);
  // Complete verdict: served at any budget that covers its step count.
  EXPECT_TRUE(load(conj, 0).has_value());
  EXPECT_TRUE(load(conj, 50).has_value());
  EXPECT_FALSE(load(conj, 10).has_value());
  auto e = load(conj, 0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->result, smt::CheckResult::Unsat);
  EXPECT_EQ(e->tier, 2);
  EXPECT_TRUE(e->complete);
  EXPECT_EQ(e->steps, 50);

  // Exhausted verdict: only served under a budget no larger than the one
  // that ran out — a starved Unknown must never poison an unlimited run.
  const std::vector<std::string> conj2 = {"!1*i#0'+-1*i#0+0", "x"};
  smt::VerdictEntry starved{smt::CheckResult::Unknown, 2, false, 100};
  store.storeCheck(contentKeyOf(store.interner(), smt::KeyKind::Check, conj2),
                   starved);
  EXPECT_TRUE(load(conj2, 100).has_value());
  EXPECT_TRUE(load(conj2, 50).has_value());
  EXPECT_FALSE(load(conj2, 200).has_value());
  EXPECT_FALSE(load(conj2, 0).has_value());
}

// A starved solver re-deriving a conjunction whose complete record is on
// disk must leave that record complete: storeCheck writes only entries that
// are new or stronger than what the store holds, so a reopened store still
// serves the complete verdict to an unlimited solver.
TEST(DiskCache, StarvedRederivationKeepsTheCompleteRecord) {
  TempDir dir("starved");
  smt::AtomTable atoms;
  std::vector<smt::AtomId> v;
  for (int k = 0; k < 4; ++k)
    v.push_back(atoms.internVar("v" + std::to_string(k), 0, false));
  // a = b = c = d with 4a == 10: truly Unsat, after several pivot steps.
  auto addChain = [&](smt::Solver& s) {
    using smt::Constraint;
    using smt::LinExpr;
    s.add(Constraint::eq(LinExpr::atom(v[0]), LinExpr::atom(v[1])));
    s.add(Constraint::eq(LinExpr::atom(v[1]), LinExpr::atom(v[2])));
    s.add(Constraint::eq(LinExpr::atom(v[2]), LinExpr::atom(v[3])));
    s.add(Constraint::eq(LinExpr::atom(v[0]) + LinExpr::atom(v[1]) +
                             LinExpr::atom(v[2]) + LinExpr::atom(v[3]),
                         LinExpr(smt::Rational(10))));
  };
  auto run = [&](long long stepLimit) {
    smt::PersistentVerdictStore store(dir.path.string());
    smt::Solver s(atoms);
    s.attachStore(&store);
    s.setStepBudget(stepLimit);
    addChain(s);
    const smt::CheckResult r = s.check();
    return std::make_pair(r, s.stats().cacheHits);
  };

  EXPECT_EQ(run(0), std::make_pair(smt::CheckResult::Unsat, 0LL));
  // The starved run reads the complete record (insufficient for its
  // budget), re-derives an exhausted Unknown, and must not persist it.
  EXPECT_EQ(run(1), std::make_pair(smt::CheckResult::Unknown, 0LL));
  EXPECT_EQ(run(0), std::make_pair(smt::CheckResult::Unsat, 1LL));
}

TEST(DiskCache, TaskRecordRoundtripVerifiesFullKey) {
  TempDir dir("task");
  smt::PersistentVerdictStore::TaskRecord rec;
  rec.pairSafe = true;
  rec.tiers = {2, 0};
  rec.exhausted = {0, 0};
  rec.steps = {40, 1};
  {
    smt::PersistentVerdictStore writer(dir.path.string());
    writer.storeTask(contentKeyOf(writer.interner(), smt::KeyKind::Pair,
                                  {"!1*i#0'+-1*i#0+0"}, {"=1*q#0+0"}),
                     rec);
  }
  // Read back through a reopened store: the loads hit the record file.
  smt::PersistentVerdictStore store(dir.path.string());
  const auto key = contentKeyOf(store.interner(), smt::KeyKind::Pair,
                                {"!1*i#0'+-1*i#0+0"}, {"=1*q#0+0"});

  auto got = store.loadTask(key, 0);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->pairSafe);
  EXPECT_FALSE(got->unsat);
  EXPECT_EQ(got->tiers, (std::vector<int>{2, 0}));
  EXPECT_EQ(got->steps, (std::vector<long long>{40, 1}));

  // A different digest looks under a different file name: miss.
  EXPECT_FALSE(
      store.loadTask(withDigest(key, smt::ContentDigest{1, 2}), 0).has_value());
  // Same digest, different key (a simulated digest collision): the
  // canonical-key verification rejects it — a collision costs a miss,
  // never a wrong verdict. Both a different conjunction and a different
  // probe sequence are caught.
  const auto otherBase = contentKeyOf(store.interner(), smt::KeyKind::Pair,
                                      {"!1*i#0'+-1*i#0+0", ";"}, {"=1*q#0+0"});
  const auto otherProbes = contentKeyOf(store.interner(), smt::KeyKind::Pair,
                                        {"!1*i#0'+-1*i#0+0"},
                                        {"=1*q#0+0", "=1*r#0+0"});
  EXPECT_FALSE(
      store.loadTask(withDigest(otherBase, key.digest), 0).has_value());
  EXPECT_FALSE(
      store.loadTask(withDigest(otherProbes, key.digest), 0).has_value());
  // Budget guard applies to EVERY recorded check.
  EXPECT_FALSE(store.loadTask(key, 10).has_value());
}

// A digest collision is a miss in the in-memory layers too: the exact
// identity is checked on every digest hit, and colliding keys live side
// by side as separate entries.
TEST(ContentKeyCollision, VerdictCacheMissesAndKeepsBoth) {
  smt::PersistentVerdictStore store;
  const auto a =
      contentKeyOf(store.interner(), smt::KeyKind::Check, {"=1*i#0+0"});
  const auto b = withDigest(
      contentKeyOf(store.interner(), smt::KeyKind::Check, {"=1*j#0+0"}),
      a.digest);
  ASSERT_NE(a, b);
  store.storeCheck(a, {smt::CheckResult::Unsat, 2, true, 5});
  EXPECT_FALSE(store.loadCheck(b, 0).has_value());
  store.storeCheck(b, {smt::CheckResult::Sat, 1, true, 3});
  ASSERT_TRUE(store.loadCheck(a, 0).has_value());
  EXPECT_EQ(store.loadCheck(a, 0)->result, smt::CheckResult::Unsat);
  ASSERT_TRUE(store.loadCheck(b, 0).has_value());
  EXPECT_EQ(store.loadCheck(b, 0)->result, smt::CheckResult::Sat);
  EXPECT_EQ(store.stats().checkStores, 2);
}

TEST(ContentKeyCollision, StoreMemoryLayerMissesAndKeepsBoth) {
  smt::PersistentVerdictStore store;
  const auto a =
      contentKeyOf(store.interner(), smt::KeyKind::Check, {"=1*i#0+0"});
  const auto b = withDigest(
      contentKeyOf(store.interner(), smt::KeyKind::Check, {"=1*j#0+0"}),
      a.digest);
  store.storeCheck(a, {smt::CheckResult::Unsat, 2, true, 5});
  EXPECT_FALSE(store.loadCheck(b, 0).has_value());
  store.storeCheck(b, {smt::CheckResult::Sat, 2, true, 5});
  EXPECT_EQ(store.loadCheck(a, 0)->result, smt::CheckResult::Unsat);
  EXPECT_EQ(store.loadCheck(b, 0)->result, smt::CheckResult::Sat);

  const auto ta = contentKeyOf(store.interner(), smt::KeyKind::Pair,
                               {"!1*i#0+0"}, {"=1*q#0+0"});
  const auto tb = withDigest(contentKeyOf(store.interner(), smt::KeyKind::Pair,
                                          {"!1*i#0+0"}, {"=1*r#0+0"}),
                             ta.digest);
  smt::PersistentVerdictStore::TaskRecord safe;
  safe.pairSafe = true;
  safe.tiers = {2};
  safe.exhausted = {0};
  safe.steps = {7};
  store.storeTask(ta, safe);
  EXPECT_FALSE(store.loadTask(tb, 0).has_value());
  smt::PersistentVerdictStore::TaskRecord unsafe = safe;
  unsafe.pairSafe = false;
  store.storeTask(tb, unsafe);
  EXPECT_TRUE(store.loadTask(ta, 0)->pairSafe);
  EXPECT_FALSE(store.loadTask(tb, 0)->pairSafe);
}

// Records of the previous store format ("formadvc 1") are a clean miss:
// no throw, every task recomputed, the same report as a store-free run,
// and the recomputed records make the next run warm.
TEST(DiskCache, VersionOneRecordsAreACleanMiss) {
  const auto spec = kernels::gfmcSplitSpec();
  auto analyze = [&](smt::PersistentVerdictStore* store) {
    driver::DriverOptions opts;
    opts.verdictStore = store;
    auto kernel = parser::parseKernel(spec.source);
    auto a = driver::analyze(*kernel, spec.independents, spec.dependents, opts);
    return std::make_pair(core::describe(a, false) + core::describeTiers(a),
                          a.tasksPersisted());
  };
  const std::string ref = analyze(nullptr).first;

  // Hand-write a v1 record under every file name the current format uses,
  // each carrying the right canonical key and a payload that would claim
  // Unsat / a safe pair if it were believed.
  TempDir current("v2"), old("v1");
  {
    smt::PersistentVerdictStore store(current.path.string());
    (void)analyze(&store);
  }
  fs::create_directories(old.path);
  size_t written = 0;
  for (const auto& e : fs::directory_iterator(current.path)) {
    std::ifstream in(e.path(), std::ios::binary);
    std::string magic, keyLine, key;
    ASSERT_TRUE(std::getline(in, magic) && std::getline(in, keyLine) &&
                std::getline(in, key));
    ASSERT_EQ(magic.rfind("formadvc 2 ", 0), 0u) << magic;
    const char kind = magic.back();
    std::ofstream out(old.path / e.path().filename(), std::ios::binary);
    out << "formadvc 1 " << kind << '\n' << keyLine << '\n' << key << '\n'
        << (kind == 'c' ? "verdict unsat 0 1 0\n" : "task 1 1 1\nc 0 0 0\n")
        << "ok\n";
    ++written;
  }
  ASSERT_GT(written, 0u);

  smt::PersistentVerdictStore store(old.path.string());
  std::pair<std::string, long long> cold;
  ASSERT_NO_THROW(cold = analyze(&store));
  EXPECT_EQ(cold.first, ref);
  EXPECT_GT(cold.second, 0);
  EXPECT_EQ(store.stats().taskHits, 0);
  EXPECT_EQ(store.stats().checkHits, 0);

  // The recompute rewrote the slots in the current format.
  smt::PersistentVerdictStore reopened(old.path.string());
  const auto warm = analyze(&reopened);
  EXPECT_EQ(warm.first, ref);
  EXPECT_EQ(warm.second, 0);
  EXPECT_GT(reopened.stats().taskHits, 0);
}

TEST(DiskCache, CorruptAndTruncatedFilesFallThrough) {
  TempDir dir("corrupt");
  const std::vector<std::string> conj = {"!1*i#0'+-1*i#0+0"};
  // One reader store per probe, so every load reads the file as it is now
  // rather than a memory entry of an earlier load.
  smt::PersistentVerdictStore::Stats s;
  auto load = [&]() {
    smt::PersistentVerdictStore reopened(dir.path.string());
    const bool hit =
        reopened
            .loadCheck(contentKeyOf(reopened.interner(), smt::KeyKind::Check,
                                    conj),
                       0)
            .has_value();
    s.checkHits += reopened.stats().checkHits;
    s.checkMisses += reopened.stats().checkMisses;
    return hit;
  };
  auto write = [&]() {
    smt::PersistentVerdictStore writer(dir.path.string());
    writer.storeCheck(
        contentKeyOf(writer.interner(), smt::KeyKind::Check, conj),
        {smt::CheckResult::Unsat, 2, true, 5});
    s.checkStores += writer.stats().checkStores;
  };
  write();
  ASSERT_TRUE(load());

  fs::path file;
  for (const auto& e : fs::directory_iterator(dir.path)) file = e.path();
  ASSERT_FALSE(file.empty());

  // Truncate: drop the trailing "ok" terminator — a torn write.
  std::string whole;
  {
    std::ifstream in(file, std::ios::binary);
    whole.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(whole.size(), 3u);
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << whole.substr(0, whole.size() - 3);
  }
  EXPECT_FALSE(load());

  // Corrupt: garbage body under the right name.
  {
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << "not a record at all";
  }
  EXPECT_FALSE(load());

  // Empty file.
  { std::ofstream out(file, std::ios::binary | std::ios::trunc); }
  EXPECT_FALSE(load());

  // Recovery: a rewrite heals the slot.
  write();
  EXPECT_TRUE(load());

  EXPECT_EQ(s.checkStores, 2);
  EXPECT_EQ(s.checkHits, 2);
  EXPECT_EQ(s.checkMisses, 3);
}

}  // namespace
