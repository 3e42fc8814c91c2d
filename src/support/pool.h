// The analysis worker pool.
//
// SharedAnalysisPool is the one pool every analysis fans out on. A serving
// daemon builds one for all its sessions; a single driver call builds a
// private one (SharedAnalysisPool::makePrivateClient). Each caller holds a
// Client whose run() forms a two-ended task deque: the submitting thread
// claims from the front, idle pool workers steal from the back, and the
// pool picks victim jobs highest priority class first, round-robin within
// a class, so a large analyze cannot starve cheap requests from other
// sessions.
//
// Each task carries the index of the worker running it, so callers can keep
// strictly thread-confined state (one smt::Solver per worker).
//
// Determinism contract: the pool guarantees only that every task index in
// [0, n) runs exactly once. Callers that need reproducible output must not
// derive results from completion order; the analysis pipeline merges all
// task results in a canonical order afterwards (see formad/scheduler.h).
#pragma once

#include <array>
#include <condition_variable>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/cancel.h"

namespace formad::support {

/// std::thread::hardware_concurrency with a floor of 1.
[[nodiscard]] int hardwareWidth();

/// A bounded work-stealing pool: one per serving daemon, shared by every
/// session, or one per driver call (makePrivateClient).
///
/// The pool owns `workers` threads. Sessions do not submit fire-and-forget
/// tasks; each session holds a Client whose run() registers a
/// *job* — a contiguous task range evaluated as a two-ended deque. The
/// submitting thread drains its own job from the front (ascending indices,
/// preserving the scheduler's prefix-sharing locality) and pool workers
/// steal from the back. Because the owner always drains its own job, every
/// request makes progress even with zero pool workers, and a job can never
/// deadlock waiting for workers tied up elsewhere.
///
/// Victim selection is two-level: the highest non-empty priority class
/// wins, and within a class workers rotate round-robin across jobs on every
/// steal, so concurrent sessions of equal priority share the pool fairly
/// regardless of job size or arrival order.
///
/// Worker indices are stable per OS thread for the duration of a job: the
/// submitting thread is always index 0 and pool worker k is always index
/// k + 1, in every job it touches. Client::width() is therefore
/// workers() + 1, and per-worker state (solvers) stays thread-confined even
/// when a worker interleaves steals from several jobs.
class SharedAnalysisPool {
 public:
  /// Priority classes for victim selection. Lower value = served first.
  static constexpr int kPriorityHigh = 0;
  static constexpr int kPriorityNormal = 1;
  static constexpr int kPriorityLow = 2;
  static constexpr int kPriorityClasses = 3;

  /// Spawns `workers` stealing threads (0 is valid: clients then run
  /// serially inline with width() == 1).
  explicit SharedAnalysisPool(int workers);
  ~SharedAnalysisPool();
  SharedAnalysisPool(const SharedAnalysisPool&) = delete;
  SharedAnalysisPool& operator=(const SharedAnalysisPool&) = delete;

  class Client {
   public:
    /// Maximum distinct worker indices run() may use (workers() + 1).
    /// Callers size thread-confined state (solvers, scratch) to this.
    [[nodiscard]] int width() const;

    /// Runs fn(taskIndex, workerIndex) for every taskIndex in [0, n), then
    /// returns. Worker indices lie in [0, width()). Not reentrant: one
    /// run() at a time per client, always from the owning thread. If a
    /// task throws, the first exception is rethrown here after every
    /// claimed task finished; the throw fires `cancel` (when given) and
    /// the remaining tasks are skipped.
    ///
    /// `cancel`, when non-null, is polled before every task claim (a clock
    /// read, so armed deadlines take effect here even if no task ever
    /// polls): once it fires, remaining tasks are skipped, not executed.
    /// Skipping is not an error; lastRunSkipped() reports how many task
    /// indices never ran, so callers can degrade those results
    /// conservatively.
    void run(size_t n, const std::function<void(size_t, int)>& fn,
             CancelToken* cancel = nullptr);

    /// Number of task indices the most recent run() skipped because its
    /// CancelToken fired or a task threw. 0 after a run that executed
    /// everything.
    [[nodiscard]] size_t lastRunSkipped() const { return lastSkipped_; }

    /// Priority class for subsequent run() calls (clamped to a valid
    /// class). Per-request: the daemon sets this before each dispatch.
    void setPriority(int priority);
    [[nodiscard]] int priority() const { return priority_; }

   private:
    friend class SharedAnalysisPool;
    explicit Client(SharedAnalysisPool* pool) : pool_(pool) {}
    SharedAnalysisPool* pool_;
    std::unique_ptr<SharedAnalysisPool> owned_;  // set by makePrivateClient
    int priority_ = kPriorityNormal;
    size_t lastSkipped_ = 0;
  };

  /// Creates a session handle. The client must not outlive the pool, and
  /// each client runs one job at a time from one thread.
  [[nodiscard]] std::unique_ptr<Client> makeClient();

  /// The private pool of one analysis call: a client on a pool of its own
  /// with `width - 1` workers, which live exactly as long as the client.
  /// Null when width <= 1 (callers then evaluate serially).
  [[nodiscard]] static std::unique_ptr<Client> makePrivateClient(int width);

  [[nodiscard]] int workers() const { return nWorkers_; }

  struct Stats {
    int workers = 0;
    int busyWorkers = 0;       // pool workers executing a stolen task now
    int queuedJobs = 0;        // jobs with unclaimed tasks right now
    std::array<int, kPriorityClasses> queuedByPriority{};
    long long jobsRun = 0;        // Client::run() calls that formed a job
    long long tasksStolen = 0;    // tasks executed by pool workers
    long long tasksOwnerRun = 0;  // tasks executed by submitting threads
  };
  [[nodiscard]] Stats stats() const;

 private:
  // One Client::run() in flight. Lives on the submitting thread's stack;
  // the registry only holds pointers while tasks remain unclaimed, and the
  // owner waits for unfinished == 0 before returning. All fields are
  // guarded by the pool mutex except fn/cancel, which are immutable for the
  // job's lifetime.
  struct Job {
    const std::function<void(size_t, int)>* fn = nullptr;
    CancelToken* cancel = nullptr;
    size_t head = 0;     // next index the owner claims
    size_t tailEx = 0;   // one past the last index a thief claims
    size_t unfinished = 0;
    size_t skipped = 0;
    bool abort = false;
    bool inRunnable = false;
    int priority = kPriorityNormal;
    std::exception_ptr error;
  };

  // All registry operations take mu_. Tasks here are whole solver batches
  // (micro- to milliseconds), so a single lock around O(1) claim
  // bookkeeping is never the bottleneck and keeps the fairness policy easy
  // to reason about.
  void enqueueJob(Job* job);
  void removeRunnable(Job* job);  // requires mu_
  Job* pickVictim();              // requires mu_; advances round-robin
  void workerLoop(int worker);

  const int nWorkers_;
  std::vector<std::thread> threads_;

  mutable std::mutex mu_;
  std::condition_variable wake_;  // workers wait for runnable jobs
  std::condition_variable done_;  // owners wait for their job to finish
  bool stop_ = false;
  std::array<std::vector<Job*>, kPriorityClasses> runnable_;
  std::array<size_t, kPriorityClasses> rotor_{};  // round-robin cursors
  int busy_ = 0;
  long long jobsRun_ = 0;
  long long tasksStolen_ = 0;
  long long tasksOwnerRun_ = 0;
};

}  // namespace formad::support
