#include "common/thread_pool.h"

#include <algorithm>

namespace fuzzydb {

namespace {

// Polls `epoch` until it moves off `seen` or `deadline` passes, yielding
// the CPU between polls so a spinning thread gives way to runnable ones.
void SpinWhileUnchanged(const std::atomic<uint64_t>& epoch, uint64_t seen,
                        std::chrono::steady_clock::time_point deadline) {
  while (epoch.load(std::memory_order_relaxed) == seen &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

}  // namespace

InlineExecutor* InlineExecutor::Get() {
  static InlineExecutor executor;
  return &executor;
}

ThreadPool::ThreadPool(size_t num_executors, size_t max_queued_tasks)
    : max_queued_tasks_(max_queued_tasks) {
  const size_t workers = num_executors > 1 ? num_executors - 1 : 0;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    MutexLock lock(mu_);
    stop_ = true;
    Bump();
    job_cv_.NotifyAll();
  }
  // Idempotent for sequential callers: a joined thread is not joinable.
  // A workerless pool never accepted tasks; with workers, WorkerLoop drains
  // the queue before honoring stop_, so nothing is left behind.
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

bool ThreadPool::TryPost(std::function<void()> task) {
  MutexLock lock(mu_);
  if (stop_ || workers_.empty() || tasks_.size() >= max_queued_tasks_) {
    return false;
  }
  tasks_.push_back(std::move(task));
  Bump();
  // Notify while still holding mu_: once TryPost returns true the caller may
  // observe the task's effect and destroy the pool, and a notify on a freed
  // condvar is use-after-free. Under the lock, the destructor's stop_ write
  // cannot interleave before this wakeup.
  job_cv_.NotifyOne();
  return true;
}

void ThreadPool::Schedule(std::function<void()> task) {
  if (!TryPost(task)) task();
}

size_t ThreadPool::queued_tasks() const {
  MutexLock lock(mu_);
  return tasks_.size();
}

// Condition waits are spelled as explicit while loops rather than predicate
// lambdas throughout: the analysis checks a lambda as its own function,
// which cannot prove it holds mu_, so guarded reads inside one would fail
// -Wthread-safety (and rightly — nothing ties the lambda to the lock).
void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty() || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  MutexLock lock(mu_);
  // One job at a time: queue behind any job another thread is running.
  while (job_fn_ != nullptr) done_cv_.Wait(mu_, lock);
  job_fn_ = &fn;
  job_n_ = n;
  job_next_ = 0;
  job_done_ = 0;
  ++job_id_;
  Bump();
  job_cv_.NotifyAll();
  // The submitting thread is an executor too.
  while (job_next_ < job_n_) {
    const size_t i = job_next_++;
    lock.Unlock();
    fn(i);
    lock.Lock();
    ++job_done_;
  }
  const auto spin_until = std::chrono::steady_clock::now() + kSpinBeforeBlock;
  while (job_done_ != job_n_ && std::chrono::steady_clock::now() < spin_until) {
    const uint64_t seen = epoch_.load(std::memory_order_relaxed);
    lock.Unlock();
    SpinWhileUnchanged(epoch_, seen, spin_until);
    lock.Lock();
  }
  while (job_done_ != job_n_) done_cv_.Wait(mu_, lock);
  job_fn_ = nullptr;
  done_cv_.NotifyAll();  // wake both queued submitters and nobody else
}

void ThreadPool::WorkerLoop() {
  MutexLock lock(mu_);
  uint64_t seen_job = 0;
  // Only a worker coming off a ParallelFor job polls before it blocks: jobs
  // come back to back, while a fire-and-forget task's submitter waits on
  // nobody, so polling after a task would only burn a core.
  bool after_job = false;
  while (true) {
    const auto spin_until =
        std::chrono::steady_clock::now() +
        (after_job ? kSpinBeforeBlock : std::chrono::microseconds{0});
    while (!(stop_ || !tasks_.empty() ||
             (job_fn_ != nullptr && job_id_ != seen_job)) &&
           std::chrono::steady_clock::now() < spin_until) {
      const uint64_t seen = epoch_.load(std::memory_order_relaxed);
      lock.Unlock();
      SpinWhileUnchanged(epoch_, seen, spin_until);
      lock.Lock();
    }
    while (!(stop_ || !tasks_.empty() ||
             (job_fn_ != nullptr && job_id_ != seen_job))) {
      job_cv_.Wait(mu_, lock);
    }
    // Blocking ParallelFor jobs take priority over fire-and-forget tasks:
    // a submitter is waiting on the job, nobody waits on a queued task.
    if (job_fn_ != nullptr && job_id_ != seen_job) {
      seen_job = job_id_;
      after_job = true;
      const std::function<void(size_t)>* fn = job_fn_;
      while (job_fn_ == fn && job_next_ < job_n_) {
        const size_t i = job_next_++;
        lock.Unlock();
        (*fn)(i);
        lock.Lock();
        Bump();
        if (++job_done_ == job_n_) done_cv_.NotifyAll();
      }
      continue;
    }
    if (!tasks_.empty()) {
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      after_job = false;
      lock.Unlock();
      task();
      lock.Lock();
      continue;
    }
    if (stop_) return;  // only once the task queue has drained
  }
}

ThreadPool* ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(HardwareConcurrency());
  return pool;
}

size_t ThreadPool::HardwareConcurrency() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

std::vector<ShardRange> MakeShards(size_t n, size_t shards) {
  shards = std::max<size_t>(shards, 1);
  std::vector<ShardRange> out(shards);
  const size_t base = n / shards;
  const size_t extra = n % shards;
  size_t begin = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t len = base + (s < extra ? 1 : 0);
    out[s] = {begin, begin + len};
    begin += len;
  }
  return out;
}

}  // namespace fuzzydb
