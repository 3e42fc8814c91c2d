#include "support/pool.h"

#include <algorithm>
#include <cstddef>

namespace formad::support {

int hardwareWidth() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

SharedAnalysisPool::SharedAnalysisPool(int workers)
    : nWorkers_(std::max(0, workers)) {
  threads_.reserve(static_cast<size_t>(nWorkers_));
  for (int w = 0; w < nWorkers_; ++w)
    threads_.emplace_back([this, w] { workerLoop(w); });
}

SharedAnalysisPool::~SharedAnalysisPool() {
  // Callers must have finished every Client::run() first (jobs live on the
  // submitting threads' stacks); the daemon joins its sessions before the
  // pool member is destroyed.
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& t : threads_) t.join();
}

std::unique_ptr<SharedAnalysisPool::Client> SharedAnalysisPool::makeClient() {
  return std::unique_ptr<Client>(new Client(this));
}

std::unique_ptr<SharedAnalysisPool::Client>
SharedAnalysisPool::makePrivateClient(int width) {
  if (width <= 1) return nullptr;
  auto pool = std::make_unique<SharedAnalysisPool>(width - 1);
  std::unique_ptr<Client> client = pool->makeClient();
  client->owned_ = std::move(pool);
  return client;
}

int SharedAnalysisPool::Client::width() const { return pool_->nWorkers_ + 1; }

void SharedAnalysisPool::Client::setPriority(int priority) {
  priority_ = std::min(kPriorityClasses - 1, std::max(0, priority));
}

void SharedAnalysisPool::Client::run(
    size_t n, const std::function<void(size_t, int)>& fn,
    CancelToken* cancel) {
  lastSkipped_ = 0;
  if (n == 0) return;
  if (pool_->nWorkers_ == 0 || n == 1) {
    // Inline serial fast path: no job, no wakeups. A throw skips the rest
    // and fires the token, as the job path below does.
    for (size_t i = 0; i < n; ++i) {
      if (cancel != nullptr && cancel->poll()) {
        lastSkipped_ = n - i;
        return;
      }
      try {
        fn(i, 0);
      } catch (...) {
        lastSkipped_ = n - i - 1;
        if (cancel != nullptr) cancel->cancel();
        throw;
      }
    }
    return;
  }

  Job job;
  job.fn = &fn;
  job.cancel = cancel;
  job.tailEx = n;
  job.unfinished = n;
  job.priority = priority_;
  pool_->enqueueJob(&job);

  // Owner drain: claim ascending from the front. Thieves take the back, so
  // the owner keeps the scheduler's prefix-sharing locality for the portion
  // it evaluates itself.
  for (;;) {
    size_t idx;
    {
      std::lock_guard<std::mutex> lk(pool_->mu_);
      if (job.head >= job.tailEx) break;
      if (job.abort || (cancel != nullptr && cancel->poll())) {
        // Skipped claims still count down unfinished — otherwise the wait
        // below would never finish for tasks that never execute.
        const size_t left = job.tailEx - job.head;
        job.skipped += left;
        job.unfinished -= left;
        job.head = job.tailEx;
        pool_->removeRunnable(&job);
        break;
      }
      idx = job.head++;
      if (job.head >= job.tailEx) pool_->removeRunnable(&job);
      ++pool_->tasksOwnerRun_;
    }
    try {
      fn(idx, 0);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(pool_->mu_);
        if (!job.error) job.error = std::current_exception();
        job.abort = true;
      }
      // First exception cancels the rest of the job, and (via the token)
      // in-flight solver checks unwind at their next cooperative poll.
      if (cancel != nullptr) cancel->cancel();
    }
    std::lock_guard<std::mutex> lk(pool_->mu_);
    --job.unfinished;  // the owner is the only waiter; no self-notify
  }

  std::unique_lock<std::mutex> lk(pool_->mu_);
  pool_->done_.wait(lk, [&] { return job.unfinished == 0; });
  pool_->removeRunnable(&job);  // idempotent; normally already delisted
  lastSkipped_ = job.skipped;
  if (job.error) {
    std::exception_ptr e = job.error;
    lk.unlock();
    std::rethrow_exception(e);
  }
}

void SharedAnalysisPool::enqueueJob(Job* job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++jobsRun_;
    job->inRunnable = true;
    runnable_[static_cast<size_t>(job->priority)].push_back(job);
  }
  wake_.notify_all();
}

void SharedAnalysisPool::removeRunnable(Job* job) {
  if (!job->inRunnable) return;
  auto& list = runnable_[static_cast<size_t>(job->priority)];
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i] == job) {
      list.erase(list.begin() + static_cast<ptrdiff_t>(i));
      break;
    }
  }
  job->inRunnable = false;
}

SharedAnalysisPool::Job* SharedAnalysisPool::pickVictim() {
  for (size_t p = 0; p < static_cast<size_t>(kPriorityClasses); ++p) {
    auto& list = runnable_[p];
    if (list.empty()) continue;
    // Rotate across jobs of the class on every steal: with J runnable jobs
    // each gets ~1/J of the workers regardless of size or arrival order.
    return list[rotor_[p]++ % list.size()];
  }
  return nullptr;
}

void SharedAnalysisPool::workerLoop(int worker) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    wake_.wait(lk, [&] {
      if (stop_) return true;
      for (const auto& list : runnable_)
        if (!list.empty()) return true;
      return false;
    });
    if (stop_) return;
    Job* job = pickVictim();
    if (job == nullptr) continue;
    if (job->abort ||
        (job->cancel != nullptr && job->cancel->poll())) {
      const size_t left = job->tailEx - job->head;
      job->skipped += left;
      job->unfinished -= left;
      job->head = job->tailEx;
      removeRunnable(job);
      if (job->unfinished == 0) done_.notify_all();
      continue;
    }
    // Steal from the back of the deque.
    const size_t idx = --job->tailEx;
    if (job->head >= job->tailEx) removeRunnable(job);
    ++tasksStolen_;
    ++busy_;
    const auto* fn = job->fn;
    CancelToken* cancel = job->cancel;
    lk.unlock();
    try {
      (*fn)(idx, worker + 1);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk2(mu_);
        if (!job->error) job->error = std::current_exception();
        job->abort = true;
      }
      if (cancel != nullptr) cancel->cancel();
    }
    lk.lock();
    --busy_;
    // After this decrement-and-notify the job may be destroyed by its
    // owner; it must not be touched again (and is not: the next iteration
    // picks a fresh victim).
    if (--job->unfinished == 0) done_.notify_all();
  }
}

SharedAnalysisPool::Stats SharedAnalysisPool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  Stats s;
  s.workers = nWorkers_;
  s.busyWorkers = busy_;
  for (size_t p = 0; p < static_cast<size_t>(kPriorityClasses); ++p) {
    s.queuedByPriority[p] = static_cast<int>(runnable_[p].size());
    s.queuedJobs += s.queuedByPriority[p];
  }
  s.jobsRun = jobsRun_;
  s.tasksStolen = tasksStolen_;
  s.tasksOwnerRun = tasksOwnerRun_;
  return s;
}

}  // namespace formad::support
