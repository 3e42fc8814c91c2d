// Static primal race detection with SMT counterexample witnesses.
//
// FormAD's soundness rests on an assumption it never checks: the primal
// parallel loop is race-free (paper Sec. 4). This subsystem asks the
// *converse* of FormAD's exploitation question. Where exploitation assumes
// primal write pairs are disjoint and proves adjoint pairs disjoint, the
// race checker takes NO knowledge for granted and asks, for every pair of
// references to a shared array in a parallel region (at least one a
// write): can the indices coincide on two different iterations i != i'?
//
//   - Unsat        -> the pair cannot collide (proof, sound);
//   - Sat + model  -> a concrete colliding iteration pair exists; if the
//                     query is free of data-dependent atoms the collision
//                     is real and reported as a witness (two source
//                     locations, the iteration pair, the index values);
//   - otherwise    -> Unknown (data-dependent indices, undecided bounds,
//                     or no witness within the model-search budget).
//
// The per-reference machinery is shared with knowledge extraction
// (collectAccesses, instance numbering, IndexLowering, priming); on top of
// it the checker adds what the exploitation phase never needed:
//   - stride/range equations  i = lo + step*q, q >= 0  relating the
//     counter pair to the loop's iteration lattice (this is what proves a
//     radius-r compact stencil safe: i - i' is a multiple of r+1);
//   - defining equations for privately computed index scalars
//     (`var i = n_cell_entries * cell`), substituted into the queried
//     dimensions;
//   - optional *pinned parameters* (RaceCheckOptions::paramValues):
//     never-written integer params replaced by concrete values, which
//     linearizes products the solver would otherwise treat as opaque;
//   - optional *coloring facts* (RaceCheckOptions::colorings): arrays the
//     caller promises act as conflict-free colorings (values read on
//     different iterations never coincide, e.g. the mesh edge->node map
//     under an edge coloring). Pairs decided only by such a promise are
//     counted as assumed, not proven.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "ir/kernel.h"
#include "smt/fastpath.h"
#include "support/diagnostics.h"
#include "support/pool.h"

namespace formad::smt {
struct FaultInject;
class PersistentVerdictStore;
}

namespace formad::racecheck {

enum class RaceVerdict { RaceFree, Racy, Unknown };

[[nodiscard]] std::string to_string(RaceVerdict v);

/// A concrete counterexample: two references to the same array whose
/// indices coincide on two different iterations of the parallel loop.
struct RaceWitness {
  std::string array;
  std::string refA;  // rendered reference on iteration iterA (primed side)
  std::string refB;  // rendered reference on iteration iterB
  SourceLoc locA;
  SourceLoc locB;
  bool bothWrites = false;
  /// The race is on a shared scalar (every iteration pair collides).
  bool scalar = false;
  long long iterA = 0;  // value of the loop counter on the primed side
  long long iterB = 0;
  /// Per-dimension index values of the collision (equal on both sides;
  /// empty for scalar witnesses).
  std::vector<long long> indices;
  /// Human-readable slice of the model: variable name -> value.
  std::vector<std::pair<std::string, long long>> assignment;

  [[nodiscard]] std::string render() const;
};

/// A reference pair the checker could not decide either way.
struct UndecidedPair {
  std::string array;
  std::string refA;
  std::string refB;
  SourceLoc locA;
  SourceLoc locB;
  std::string reason;  // e.g. "index depends on data: c(i)"
};

/// Verdict for one parallel region.
struct RegionRaceReport {
  const ir::For* loop = nullptr;
  RaceVerdict verdict = RaceVerdict::RaceFree;
  std::vector<RaceWitness> witnesses;
  std::vector<UndecidedPair> undecided;
  int pairsChecked = 0;
  int pairsProven = 0;   // discharged by an Unsat proof
  int pairsAssumed = 0;  // discharged by a declared coloring fact
  int queries = 0;       // solver check() calls issued
  /// Decision-tier breakdown of the queries (0/1 fast path, 2 full solve;
  /// cache-served checks count under the tier that first decided them).
  /// queries == tier0Hits + tier1Hits + tier2Checks, at any pool width.
  long long tier0Hits = 0;
  long long tier1Hits = 0;
  long long tier2Checks = 0;
  /// Queries that returned a budget-exhausted Unknown. 0 unless a step
  /// budget is configured, so default reports are byte-identical to the
  /// pre-governance format (describe() appends these only when nonzero).
  long long budgetExhaustedChecks = 0;
  /// Pairs left undecided by resource governance — budget exhaustion or
  /// cancellation — rather than by the structure of the query.
  long long degradedPairs = 0;
  double analysisSeconds = 0;
};

/// Verdicts for every parallel region of a kernel.
struct RaceReport {
  std::string kernel;
  std::vector<RegionRaceReport> regions;

  /// Worst verdict over all regions (Racy > Unknown > RaceFree).
  [[nodiscard]] RaceVerdict overall() const;
  [[nodiscard]] std::string describe() const;
};

struct RaceCheckOptions {
  /// Concrete values for never-written integer parameters, substituted as
  /// constants during index lowering (e.g. {"n_cell_entries", 20} makes
  /// LBM's n_cell_entries*cell products linear). Names that are not
  /// integer scalar input params, or that the kernel writes, are ignored.
  std::map<std::string, long long> paramValues;
  /// Integer arrays promised to be conflict-free colorings: two reads of
  /// the same coloring array on different iterations never return the same
  /// value. Pairs discharged by this promise count as pairsAssumed.
  std::set<std::string> colorings;
  /// Stop collecting witnesses in a region after this many.
  int maxWitnessesPerRegion = 4;
  /// Tiered fast-path deciders consulted before the full solver
  /// (smt/fastpath.h). Fast verdicts are exact: the setting changes speed
  /// and the tier breakdown only, never any verdict or witness.
  smt::FastPathMode fastpath = smt::FastPathMode::Full;
  /// Optional externally owned worker pool (shared with the exploitation
  /// scheduler by the driver): per-pair converse queries are evaluated
  /// speculatively across its workers and merged in canonical pair order,
  /// so the report is bit-identical at any pool width.
  support::SharedAnalysisPool::Client* pool = nullptr;
  /// Per-check deterministic solver step budget (<= 0 = unlimited). A
  /// query that runs out is reported undecided with reason "solver step
  /// budget exhausted" — never Racy, never RaceFree.
  long long solverSteps = 0;
  /// Region wall-clock deadline in milliseconds (<= 0 = none). A liveness
  /// limit only: pairs the deadline stops degrade to undecided; which
  /// pairs is timing-dependent (use solverSteps for reproducible limits).
  int deadlineMs = 0;
  /// Optional externally owned cancellation token; when null and
  /// deadlineMs > 0, each region arms its own.
  support::CancelToken* cancel = nullptr;
  /// Deterministic fault-injection harness for tests and the CI smoke job
  /// (nullptr = off; see smt::FaultInject).
  smt::FaultInject* faultInject = nullptr;
  /// Optional cross-run persistent verdict store shared with the FormAD
  /// exploitation phase (the converse queries reuse the same
  /// content-addressed check records). Verdict-neutral: persisted entries
  /// are pure functions of conjunction + budget, so reports stay
  /// byte-identical. Ignored while faultInject is set.
  smt::PersistentVerdictStore* store = nullptr;
};

/// Runs the race checker on every parallel region of `kernel`.
[[nodiscard]] RaceReport checkKernelRaces(const ir::Kernel& kernel,
                                          const RaceCheckOptions& opts = {});

}  // namespace formad::racecheck
