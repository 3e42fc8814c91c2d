// Shared plumbing of the benchmark: arguments, clocks, process resource
// usage, seeded loop-counter renames, class-balanced latency books, the
// golden references and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msBetween(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workDir = ".";   // scratch space: stores, trace file
  std::string goldenDir;       // perfbench/golden
  bool recordGolden = false;   // rewrite the recorded report fixtures
};

/// Process user+sys CPU time (all threads), in ms.
[[nodiscard]] double processCpuMs();
/// Peak resident set of this process, in MB.
[[nodiscard]] double peakRssMb();

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main: its metrics plus op accounting.
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
};

[[nodiscard]] std::string resultLine(const Outcome& out);

/// Fresh-content generator: renames every parallel-loop counter of a DSL
/// source to a seeded name this process has never produced. The work the
/// analyzer does is unchanged (the suffix has a fixed width), but every
/// content fingerprint moves, so no cache layer can serve the result.
class Renamer {
 public:
  explicit Renamer(std::uint64_t seed) : rng_(seed) {}

  struct Renamed {
    std::string source;
    /// (fresh, original) counter names.
    std::vector<std::pair<std::string, std::string>> names;
  };
  [[nodiscard]] Renamed fresh(const std::string& source);

 private:
  std::mt19937_64 rng_;
  std::unordered_set<std::string> used_;
};

/// Maps every fresh counter name in `text` back to its original.
[[nodiscard]] std::string undoRename(std::string text,
                                     const Renamer::Renamed& r);

/// Latencies per request class. Percentiles are taken per class, then
/// combined by geometric mean across classes, never over the mixed stream.
class LatencyBook {
 public:
  void add(const std::string& cls, double ms) { byClass_[cls].push_back(ms); }
  [[nodiscard]] double balanced(double pct) const;
  [[nodiscard]] const std::map<std::string, std::vector<double>>& classes()
      const {
    return byClass_;
  }

 private:
  std::map<std::string, std::vector<double>> byClass_;
};

/// Wall and CPU time of a stretch of timed ops.
struct Window {
  double wallMs = 0;
  double cpuMs = 0;
  long long ops = 0;
};

/// A timed window is cut into blocks of consecutive whole rounds, each with
/// its own times and latencies. Every end-to-end metric but set-up is the
/// median over blocks, so a host slowdown over less than half the window
/// does not move it (a percentile over the whole window would take it in).
struct Block {
  Window w;
  LatencyBook book;
};

/// Rounds per block: at least 100 (each class keeps at least ten samples
/// beyond its p90), and one block if the window has fewer.
constexpr int kMinBlockRounds = 100;

/// Block boundaries of a window of `rounds` rounds: the first round of each
/// block, then `rounds`. Blocks differ in size by at most one round.
[[nodiscard]] std::vector<int> blockBounds(int rounds);

/// Every latency of `blocks` in one book.
[[nodiscard]] LatencyBook mergedBook(const std::vector<Block>& blocks);

/// Median over blocks of the class-balanced `pct` percentile.
[[nodiscard]] double blockedBalanced(const std::vector<Block>& blocks,
                                     double pct);

/// The six end-to-end metrics every workload reports.
void addEndToEnd(Outcome& out, const std::vector<double>& setupSeconds,
                 const std::vector<Block>& blocks);

/// Hand-written Table-1 verdicts plus the recorded report fixtures.
class Golden {
 public:
  Golden(std::string dir, bool record);

  /// Table 1: is every adjoint variable of `kernel` proven safe, and which
  /// variables are rejected.
  struct Verdict {
    bool safe = false;
    std::vector<std::string> rejected;
  };
  [[nodiscard]] const Verdict& analyzeVerdict(const std::string& kernel) const;
  [[nodiscard]] const std::string& racecheckVerdict(
      const std::string& kernel) const;

  /// Compares `text` with fixture `name` (or records it in record mode).
  /// Returns false and prints the text on mismatch. Not thread-safe: call
  /// from one thread.
  [[nodiscard]] bool matches(const std::string& name,
                             const std::string& text) const;

 private:
  std::string dir_;
  bool record_ = false;
  std::map<std::string, Verdict> analyze_;
  std::map<std::string, std::string> racecheck_;
  mutable std::map<std::string, std::string> fixtures_;
};

[[nodiscard]] std::string readFile(const std::string& path);
void writeFile(const std::string& path, const std::string& text);

/// Round-based op order: `rounds` rounds, each a seeded permutation of
/// 0..classes-1, flattened.
[[nodiscard]] std::vector<int> shuffledRounds(int classes, int rounds,
                                              std::mt19937_64& rng);

/// Timed ops per class of a window: rate * seconds, at least 100 so that
/// at least ten samples lie beyond each class's p90. A traced run times two
/// windows (untraced, then traced) of half that size, so it takes about as
/// long as an untraced run.
[[nodiscard]] int opsPerClass(double ratePerSecond, const Args& args);

void runServe(const Args& args, bool warm, Tracer& tracer, Outcome& out);
void runAdjoint(const Args& args, Tracer& tracer, Outcome& out);

}  // namespace perfbench
