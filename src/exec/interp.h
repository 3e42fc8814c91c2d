// Kernel executor: binds values to parameters and runs the IR, either on
// the tree-walking interpreter or on the bytecode VM (bytecode.h; the
// default — see ExecEngine).
//
// Three modes:
//   - Serial:  single-threaded reference execution (used for correctness
//     baselines and as the paper's "serial version" timings source);
//   - OpenMP:  parallel loops run on real OpenMP threads; atomic guards use
//     atomic updates, reduction guards use per-thread shadow copies merged
//     after the loop (bytecode engine only);
//   - Profile: serial execution that records per-iteration operation counts
//     (counts.h) for the cost-model simulator.
//
// Tape discipline: a parallel loop marked usesTape allocates (forward) or
// consumes (reverse) a per-iteration LaneBlock, so adjoint iterations pop
// exactly what their own iteration pushed regardless of scheduling.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ad/tape.h"
#include "exec/counts.h"
#include "exec/value.h"
#include "ir/kernel.h"

namespace formad::exec {

enum class ExecMode { Serial, OpenMP, Profile };

/// Which execution engine runs the kernel:
///   - TreeWalk: the original AST-walking interpreter, serial only (the
///     reference semantics; an OpenMP-mode run throws formad::Error);
///   - Bytecode: the compiled register VM (bytecode.h), bit-identical to the
///     tree-walker and substantially faster — the default.
enum class ExecEngine { TreeWalk, Bytecode };

/// Values bound to kernel parameters. Arrays are owned here and passed to
/// the kernel by reference (results are read back from the same objects).
class Inputs {
 public:
  void bindInt(const std::string& name, long long v);
  void bindReal(const std::string& name, double v);
  ArrayValue& bindArray(const std::string& name, ArrayValue a);

  [[nodiscard]] ArrayValue& array(const std::string& name);
  [[nodiscard]] const ArrayValue& array(const std::string& name) const;
  [[nodiscard]] double real(const std::string& name) const;
  [[nodiscard]] long long intVal(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;

 private:
  std::map<std::string, ScalarVal> scalars_;
  std::map<std::string, ArrayValue> arrays_;
};

struct ExecOptions {
  ExecMode mode = ExecMode::Serial;
  int numThreads = 1;
  ExecEngine engine = ExecEngine::Bytecode;
  /// Record per-iteration read/write sets of every parallel loop and report
  /// cross-iteration conflicts (the dynamic race oracle used to validate
  /// the static checker in racecheck/). Forces serial tree-walk execution
  /// so the log is deterministic and complete; results land in
  /// ExecStats::raceLog.
  bool logRaces = false;
};

/// One observed cross-iteration conflict on a concrete input: two distinct
/// iterations of the same parallel loop touched the same storage location
/// and at least one touch was an unprotected write.
struct RaceEvent {
  std::string var;        // array or scalar parameter/local name
  long long element = 0;  // flattened element index (arrays only)
  long long iterA = 0;    // the two colliding loop-counter values
  long long iterB = 0;
  bool writeWrite = false;  // both touches were writes
  bool scalar = false;      // conflict on a shared scalar
};

/// Conflicts observed by one run with ExecOptions::logRaces set.
struct RaceLog {
  std::vector<RaceEvent> events;
  long long dropped = 0;  // events beyond the cap (kept as a count only)

  [[nodiscard]] bool any() const { return !events.empty() || dropped > 0; }
  [[nodiscard]] std::string describe() const;
};

struct ExecStats {
  RunProfile profile;        // populated in Profile mode
  size_t tapePeakBytes = 0;  // high-water mark of tape memory
  bool tapeDrained = true;   // push/pop balance check
  RaceLog raceLog;           // populated when ExecOptions::logRaces is set
};

class Executor {
 public:
  /// Prepares a kernel for execution: verifies it, resolves variable slots,
  /// pre-classifies increments and access patterns. The kernel is cloned;
  /// the caller's IR is not modified.
  explicit Executor(const ir::Kernel& kernel);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs the kernel against `io`. Every parameter must be bound with a
  /// matching type; `out` parameters must be bound too (storage).
  ExecStats run(Inputs& io, const ExecOptions& opts = {});

  [[nodiscard]] const ir::Kernel& kernel() const { return *kernel_; }

 private:
  class Impl;
  std::unique_ptr<ir::Kernel> kernel_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace formad::exec
