// Knowledge extraction (paper Sec. 5, phase 1) and question generation
// (phase 2 input).
//
// For one parallel region this module
//   - lowers every array reference to a flattened linear offset expression
//     over SMT atoms (variables with instance numbers, uninterpreted reads
//     of integer arrays, symbolic array extents — the form the paper shows
//     for LBM in Sec. 7.3);
//   - derives *knowledge*: for each array with at least one non-atomic
//     write, all pairs (w', x) of a primed write offset against another
//     write/read offset must be disjoint if the primal is correctly
//     parallelized. Each pair is attached to the context that must execute
//     both references (Sec. 5.1);
//   - derives *questions*: for each active shared variable, the pairs of
//     future adjoint references (derived from the primal references via the
//     mapping of Sec. 5.4: primal read -> adjoint increment, primal
//     overwrite -> adjoint read+zero, primal exact increment -> adjoint
//     read) whose disjointness FormAD must prove.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "absint/analyze.h"
#include "analysis/activity.h"
#include "analysis/instances.h"
#include "analysis/symbols.h"
#include "cfg/context.h"
#include "ir/kernel.h"
#include "smt/solver.h"

namespace formad::core {

/// One extracted disjointness fact:  primed != other  within `context`.
struct KnowledgeAssertion {
  smt::LinExpr primed;
  smt::LinExpr other;
  int context = 0;
  std::string array;  // provenance (diagnostics)
};

/// One pair the exploitation phase must prove disjoint. The pair is proven
/// safe if the *flattened* offsets are provably unequal, or — since the
/// paper assumes all indices stay within their dimension's bounds (Sec. 3)
/// — if the index expressions of any single dimension are provably unequal.
struct QuestionPair {
  smt::LinExpr primedWrite;
  smt::LinExpr other;
  /// Per-dimension index expressions (same length on both sides; empty for
  /// the scalar-adjoint pseudo-question).
  std::vector<smt::LinExpr> primedDims;
  std::vector<smt::LinExpr> otherDims;
  int context = 0;  // common root of the two primal reference contexts
  /// Primal reference nodes whose adjoint accesses this pair constrains
  /// (both sides, accumulated across offset-key-deduplicated duplicates;
  /// empty for the scalar pseudo-question, which has no array reference).
  /// The hybrid safeguard keys its per-site verdicts on these pointers.
  std::vector<const ir::Expr*> sites;
};

/// Adjoint access pattern of one shared variable in one region.
struct VarQuestions {
  std::string var;  // primal name
  std::vector<QuestionPair> pairs;
};

/// Everything FormAD knows about one parallel region.
struct RegionModel {
  const ir::For* loop = nullptr;
  std::shared_ptr<smt::AtomTable> atoms;
  cfg::ContextTree contexts;
  smt::AtomId counterAtom = -1;        // i
  smt::AtomId counterPrimeAtom = -1;   // i'
  std::vector<KnowledgeAssertion> knowledge;
  std::vector<VarQuestions> questions;

  /// Abstract-interpretation invariants (ModelOptions::absint): sound
  /// equality facts over fresh `__ai_*` atoms, injected as ordinary base
  /// assertions right below the root so every decision tier sees them.
  /// Only equalities are ever injected (an interval bound as a `<=` would
  /// leave multi-atom Le residues that flip exact Sat verdicts to Unknown;
  /// interval facts travel via `hints` instead and never constrain).
  std::vector<smt::Constraint> invariants;
  /// Per-atom interval/stride facts guiding the t1-absint fast-path
  /// decider (witness construction only — verified by evaluation, so they
  /// cannot change any verdict, only the tier that reaches it). salt != 0
  /// iff absint ran; the salt separates solver/task cache keys.
  smt::AbsintHints hints;
  int absintFacts = 0;  // non-trivial facts the analyzer derived

  // Statistics (Table 1).
  int uniqueExprs = 0;       // distinct (array, write offset) pairs
  int statementsInRegion = 0;

  /// 1 (the i != i' assertion) + injected invariants + knowledge
  /// assertions. Unchanged from the seed when absint is off (no
  /// invariants).
  [[nodiscard]] int modelSize() const {
    return 1 + static_cast<int>(invariants.size()) +
           static_cast<int>(knowledge.size());
  }
};

/// Ablation switches for knowledge/question generation (paper Sec. 5.4).
struct ModelOptions {
  /// Recognize `u += e` statements: their adjoint only reads ub, removing
  /// write references from the question pairs. Off = every write is
  /// treated as an overwrite and every read (including increment
  /// self-reads) generates an adjoint increment.
  bool incrementDetection = true;
  /// Use activity analysis to question only active variables. Off = every
  /// real-typed shared array/scalar with adjoint writes is questioned.
  bool activityPruning = true;
  /// Run the abstract interpreter (src/absint/) over the kernel and feed
  /// its invariants into the model: stride equalities as base assertions,
  /// interval/congruence facts as fast-path hints. The invariants are
  /// sound, so verdicts can only improve (a stride fact may prove a pair
  /// SAFE that the seed model leaves UNSAFE), never weaken. Off (the
  /// default) is byte-identical to the seed analyzer.
  bool absint = false;
  /// Pinned integer parameter values forwarded to the abstract
  /// interpreter (CLI -pin). Only consulted when absint is on.
  std::map<std::string, long long> paramValues;
};

/// Builds the region model of a parallel loop of `kernel`.
[[nodiscard]] RegionModel buildRegionModel(const ir::Kernel& kernel,
                                           const ir::For& loop,
                                           const analysis::SymbolTable& syms,
                                           const analysis::Activity& act,
                                           const ModelOptions& opts = {});

/// Content-addressed fingerprint of each context's knowledge base: context
/// id -> 128-bit hex ContentKey digest of the conjunction of the context's
/// knowledge constraints (keyed as a solver check, absint off). Stable
/// across runs and knowledge
/// insertion order; editing one index expression moves only the digests of
/// the contexts whose knowledge mentions it. The incremental re-analysis
/// tests pin golden values of these for the paper kernels.
[[nodiscard]] std::map<int, std::string> contextFingerprints(
    const RegionModel& model);

/// Lowers integer index expressions to LinExpr over interned atoms.
/// Exposed for unit tests.
class IndexLowering {
 public:
  IndexLowering(smt::AtomTable& atoms, const analysis::InstanceMap& inst,
                std::set<std::string> privates,
                const analysis::SymbolTable& syms)
      : atoms_(atoms),
        inst_(&inst),
        privates_(std::move(privates)),
        syms_(syms) {}

  /// Extended form used by the race checker: `inst` may be null (every use
  /// then gets instance 0 — correct for expressions evaluated once outside
  /// the region body, like loop bounds), and `pinned` maps never-written
  /// integer parameters to concrete values, substituted as constants
  /// during lowering (this linearizes products like n_cell_entries * cell
  /// that would otherwise become opaque __mul atoms).
  IndexLowering(smt::AtomTable& atoms, const analysis::InstanceMap* inst,
                std::set<std::string> privates,
                const analysis::SymbolTable& syms,
                const std::map<std::string, long long>* pinned)
      : atoms_(atoms),
        inst_(inst),
        privates_(std::move(privates)),
        syms_(syms),
        pinned_(pinned) {}

  /// Flattened memory offset of an array reference (row-major with symbolic
  /// extents). `primed` substitutes sibling atoms for private variables
  /// (paper Sec. 5.3).
  [[nodiscard]] smt::LinExpr refOffset(const ir::ArrayRef& ref, bool primed);

  /// Lowers a scalar integer expression.
  [[nodiscard]] smt::LinExpr lower(const ir::Expr& e, bool primed);

 private:
  [[nodiscard]] smt::LinExpr mulLin(const smt::LinExpr& a,
                                    const smt::LinExpr& b);
  [[nodiscard]] smt::LinExpr opaque(const std::string& fn,
                                    std::vector<smt::LinExpr> args);
  [[nodiscard]] smt::LinExpr dimExtent(const std::string& array, int dim);

  smt::AtomTable& atoms_;
  const analysis::InstanceMap* inst_;
  std::set<std::string> privates_;
  const analysis::SymbolTable& syms_;
  const std::map<std::string, long long>* pinned_ = nullptr;
};

/// Private names of a parallel loop: the counter, clause privates, and
/// locals declared inside the body (each thread holds its own instance).
[[nodiscard]] std::set<std::string> privateNames(const ir::For& loop);

}  // namespace formad::core
