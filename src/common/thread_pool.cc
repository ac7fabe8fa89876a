#include "src/common/thread_pool.h"

#include <algorithm>

namespace mocc {
namespace {

// True on a thread while it may be running a ParallelFor task: always on pool
// workers, and on a caller while it takes part in its own job. A ParallelFor
// issued there runs inline instead of waiting for a pool that is busy with (or
// locked by) the outer job.
thread_local bool tls_in_task = false;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int workers = std::max(1, num_threads) - 1;
  workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
    epoch_signal_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::WorkerLoop() {
  tls_in_task = true;
  uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    work_cv_.wait(lk, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) {
      return;
    }
    // Adopt the current job under the lock. A job that has already been retired
    // (fn_ reset by the submitting thread before it returned) must be skipped
    // WITHOUT touching next_: by then next_/completed_ may belong to a newer job.
    seen_epoch = epoch_;
    const std::function<void(int)>* fn = fn_;
    const int n = n_;
    if (fn == nullptr) {
      continue;
    }
    ++active_;
    lk.unlock();
    int done = 0;
    while (true) {
      const int i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        break;
      }
      (*fn)(i);
      ++done;
    }
    lk.lock();
    completed_ += done;
    --active_;
    if (completed_ == n_ && active_ == 0) {
      done_cv_.notify_all();
    }
    // A worker that ran a task polls for the next job before sleeping:
    // fork-joins often come in quick succession, and a sleeping worker is slow
    // to wake. One that found every index taken goes back to sleep, so surplus
    // workers do not spin. While polling_ counts this worker, ParallelFor does
    // not spend a notification on it; the wait above picks up any job
    // published meanwhile.
    if (done == 0) {
      continue;
    }
    ++polling_;
    lk.unlock();
    const auto deadline = std::chrono::steady_clock::now() + kPollWindow;
    while (epoch_signal_.load(std::memory_order_acquire) == seen_epoch &&
           std::chrono::steady_clock::now() < deadline) {
      CpuRelax();
    }
    lk.lock();
    --polling_;
  }
}

void ThreadPool::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) {
    return;
  }
  if (workers_.empty() || n == 1 || tls_in_task) {
    for (int i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  std::lock_guard<std::mutex> run_lock(run_mu_);
  int wake = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    fn_ = &fn;
    n_ = n;
    completed_ = 0;
    active_ = 0;
    next_.store(0, std::memory_order_relaxed);
    ++epoch_;
    epoch_signal_.store(epoch_, std::memory_order_release);
    // The caller runs tasks too, so n - 1 helpers suffice; polling workers
    // adopt the job on their own.
    wake = std::min(n - 1, static_cast<int>(workers_.size())) - polling_;
    wake = std::max(0, wake);
  }
  for (int w = 0; w < wake; ++w) {
    work_cv_.notify_one();
  }
  // The caller participates in the job, then waits until every task is done AND
  // no worker still holds a reference to this job (a woken worker that adopted
  // the epoch but has not claimed an index yet counts as active, so returning —
  // and destroying `fn` — before it finishes is impossible).
  tls_in_task = true;
  int done = 0;
  while (true) {
    const int i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) {
      break;
    }
    fn(i);
    ++done;
  }
  tls_in_task = false;
  std::unique_lock<std::mutex> lk(mu_);
  completed_ += done;
  done_cv_.wait(lk, [&] { return completed_ == n_ && active_ == 0; });
  // Retire the job before releasing the lock so late-waking workers skip it.
  fn_ = nullptr;
  n_ = 0;
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency())));
  return pool;
}

}  // namespace mocc
