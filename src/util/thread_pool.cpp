#include "util/thread_pool.h"

#include <algorithm>

#include "util/error.h"

namespace apf::util {

namespace {
// Set while a thread executes chunks of any pool's job; nested parallel
// regions check it and run inline instead of re-entering a pool.
thread_local bool t_in_worker = false;
// The lane a pool worker runs as (0 on every thread no pool spawned).
thread_local std::size_t t_lane = 0;

struct InWorkerScope {
  bool previous = t_in_worker;
  InWorkerScope() { t_in_worker = true; }
  ~InWorkerScope() { t_in_worker = previous; }
  InWorkerScope(const InWorkerScope&) = delete;
  InWorkerScope& operator=(const InWorkerScope&) = delete;
};
}  // namespace

bool ThreadPool::in_worker() { return t_in_worker; }

std::size_t ThreadPool::current_lane() { return t_lane; }

ThreadPool::ThreadPool(std::size_t lanes) {
  if (lanes == 0) {
    lanes = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(lanes - 1);
  for (std::size_t t = 1; t < lanes; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop(std::size_t lane) {
  t_lane = lane;
  std::uint64_t seen_seq = 0;
  for (;;) {
    Job* job = nullptr;
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      // Explicit while-loop (not a predicate lambda) so the analysis sees
      // the guarded reads happen with mutex_ held.
      while (!stop_ && !(job_ != nullptr && job_seq_ != seen_seq) &&
             posted_.empty()) {
        wake_cv_.wait(mutex_);
      }
      if (stop_) return;
      // A region this lane has not joined yet comes before posted tasks.
      if (job_ != nullptr && job_seq_ != seen_seq) {
        seen_seq = job_seq_;
        job = job_;
        ++active_;
      } else {
        task = std::move(posted_.front());
        posted_.pop_front();
        ++posted_running_;
      }
    }
    if (job != nullptr) {
      run_chunks(*job);
      {
        MutexLock lock(mutex_);
        --active_;
      }
      done_cv_.notify_all();
    } else {
      run_posted(std::move(task));
    }
  }
}

void ThreadPool::run_chunks(Job& job) {
  InWorkerScope scope;
  for (;;) {
    const std::size_t begin =
        job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (begin >= job.n) break;
    const std::size_t end = std::min(begin + job.chunk, job.n);
    try {
      for (std::size_t i = begin; i < end; ++i) (*job.fn)(i);
    } catch (...) {
      MutexLock lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
    job.done.fetch_add(end - begin, std::memory_order_acq_rel);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Inline when there is nothing to fan out to, or when already inside a
  // pool task (nested regions must not wait on workers that may themselves
  // be blocked in an enclosing region).
  if (workers_.empty() || n == 1 || t_in_worker) {
    InWorkerScope scope;
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // One parallel region at a time; concurrent submitters queue up here.
  MutexLock submit_lock(submit_mutex_);
  Job job;
  job.fn = &fn;
  job.n = n;
  job.chunk = std::max<std::size_t>(1, n / (lanes() * 4));
  {
    MutexLock lock(mutex_);
    job_ = &job;
    ++job_seq_;
    active_ = 1;  // the caller participates as a lane
    error_ = nullptr;
  }
  wake_cv_.notify_all();
  run_chunks(job);
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    --active_;
    // `job` lives on this stack frame: wait until no worker still holds a
    // reference (active_ == 0) besides finishing the index space.
    while (!(job.done.load(std::memory_order_acquire) >= job.n &&
             active_ == 0)) {
      done_cv_.wait(mutex_);
    }
    job_ = nullptr;
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::post(std::function<void()> fn) {
  {
    MutexLock lock(mutex_);
    posted_.push_back(std::move(fn));
  }
  wake_cv_.notify_one();
}

void ThreadPool::run_posted(std::function<void()> task) {
  std::exception_ptr error;
  {
    InWorkerScope scope;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    task = nullptr;  // the closure goes before drain() can return
  }
  bool last = false;
  {
    MutexLock lock(mutex_);
    if (error && !posted_error_) posted_error_ = error;
    last = --posted_running_ == 0;
  }
  // Only drain() waits for posted tasks, and only for the last one.
  if (last) done_cv_.notify_all();
}

void ThreadPool::drain() {
  // A task waiting for the running tasks could be waiting for itself.
  APF_CHECK_MSG(!t_in_worker, "ThreadPool::drain() called from a pool task");
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      if (posted_.empty()) break;
      task = std::move(posted_.front());
      posted_.pop_front();
      ++posted_running_;
    }
    run_posted(std::move(task));
  }
  std::exception_ptr error;
  {
    MutexLock lock(mutex_);
    while (posted_running_ > 0) done_cv_.wait(mutex_);
    error = posted_error_;
    posted_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0);
  return pool;
}

namespace {
std::atomic<ThreadPool*> g_compute_pool{nullptr};
}  // namespace

ThreadPool& compute_pool() {
  ThreadPool* pool = g_compute_pool.load(std::memory_order_acquire);
  return pool != nullptr ? *pool : ThreadPool::global();
}

void set_compute_pool(ThreadPool* pool) {
  g_compute_pool.store(pool, std::memory_order_release);
}

ScopedComputePool::ScopedComputePool(ThreadPool& pool)
    : previous_(g_compute_pool.exchange(&pool, std::memory_order_acq_rel)) {}

ScopedComputePool::~ScopedComputePool() { set_compute_pool(previous_); }

}  // namespace apf::util
