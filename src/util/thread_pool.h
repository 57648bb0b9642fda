// Shared deterministic thread-pool runtime.
//
// The simulator's contract is that results are bit-identical for any worker
// count. Every parallel region in the library is a parallel_for whose tasks
// write only per-index slots; cross-index reductions then combine those
// slots serially in index order on the caller (docs/PARALLELISM.md):
//
//  - parallel_for(n, fn): runs fn(i) for i in [0, n) on the pool. Each index
//    is executed exactly once by exactly one thread; work is handed out in
//    dynamically sized chunks, so *which* thread runs an index varies between
//    runs — any state fn touches must be per-index.
//  - post(fn) / drain(): background work. post queues fn; a worker runs it
//    only when no parallel_for chunk is waiting, so regions keep priority
//    and posted tasks fill lanes that would otherwise sit idle. drain()
//    runs what is still queued on the caller, waits for the rest and
//    rethrows the first failure. FederatedRunner evaluates one round behind
//    this way (docs/PARALLELISM.md, "Posted tasks").
//  - current_lane(): the lane the calling thread runs as, so a task can pick
//    lane-local state (an evaluation replica) no other lane touches.
//
// One pool instance owns `lanes - 1` persistent worker threads; the caller of
// parallel_for is the extra lane. Nested parallel_for calls (a task that
// itself reaches a parallel region, e.g. a runner worker training a client
// whose matmuls are pool-aware) execute inline on the calling thread, so the
// pool never deadlocks and never oversubscribes the machine.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "util/annotations.h"

namespace apf::util {

class ThreadPool {
 public:
  /// `lanes` = total concurrent execution lanes (worker threads + the
  /// calling thread). 0 picks one lane per hardware core. A pool with one
  /// lane spawns no threads and runs everything inline.
  explicit ThreadPool(std::size_t lanes = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes (worker threads + caller).
  std::size_t lanes() const { return workers_.size() + 1; }

  /// Runs fn(i) for every i in [0, n); blocks until all complete. The first
  /// exception thrown by fn is rethrown on the caller after all indices
  /// finish. Calls from inside a pool task run inline (see header comment).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True when the current thread is executing a ThreadPool task (any pool).
  static bool in_worker();

  /// Queues fn to run once on a worker, after every waiting parallel_for
  /// chunk. A pool with one lane runs it only at drain(). Nested regions
  /// inside fn run inline. Whatever fn touches must stay alive until drain()
  /// returns; a pool destroyed with tasks still queued drops them.
  void post(std::function<void()> fn) APF_EXCLUDES(mutex_);

  /// Runs the posted tasks still queued on the caller, waits for those
  /// already running on workers, then rethrows the first failure among them
  /// (the others have finished). Calling it from a pool task is an error.
  void drain() APF_EXCLUDES(mutex_);

  /// Lane of the calling thread: k + 1 on a pool's worker k, 0 on any other
  /// thread (the caller lane). Distinct threads of one pool never share a
  /// lane, and drain() runs its tasks on the caller lane.
  static std::size_t current_lane();

  /// Process-wide pool shared by the tensor/evaluation hot paths, sized to
  /// the hardware (lazily constructed). See compute_pool() below.
  static ThreadPool& global();

 private:
  // One parallel region. Only one Job is live at a time (submit_mutex_
  // serializes submitters), so the per-job lane count and exception slot
  // live on the pool itself, guarded by mutex_; the Job carries only the
  // lock-free work-stealing state.
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t chunk = 1;
    // lint-apf: allow-capability-unguarded-member(lock-free atomic hand-out)
    std::atomic<std::size_t> next{0};
    // lint-apf: allow-capability-unguarded-member(acq_rel atomics synchronize)
    std::atomic<std::size_t> done{0};
  };

  void worker_loop(std::size_t lane) APF_EXCLUDES(mutex_);
  void run_chunks(Job& job) APF_EXCLUDES(mutex_);
  // Runs one posted task taken off the queue and records its failure.
  void run_posted(std::function<void()> task) APF_EXCLUDES(mutex_);

  // lint-apf: allow-capability-unguarded-member(set in ctor, joined in dtor)
  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar wake_cv_;  // workers wait here for a job or a posted task
  CondVar done_cv_;  // the submitter and drain() wait here
  // Serializes concurrent parallel_for calls; always taken before mutex_
  // (the declared ordering edge makes an inversion a compile error).
  Mutex submit_mutex_ APF_ACQUIRED_BEFORE(mutex_);
  Job* job_ APF_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t job_seq_ APF_GUARDED_BY(mutex_) = 0;
  bool stop_ APF_GUARDED_BY(mutex_) = false;
  int active_ APF_GUARDED_BY(mutex_) = 0;    // lanes inside run_chunks
  std::exception_ptr error_ APF_GUARDED_BY(mutex_);  // first failure
  // Posted tasks: queued, running (on a worker or in drain()), and the
  // first failure among them, kept until drain() rethrows it.
  std::deque<std::function<void()>> posted_ APF_GUARDED_BY(mutex_);
  std::size_t posted_running_ APF_GUARDED_BY(mutex_) = 0;
  std::exception_ptr posted_error_ APF_GUARDED_BY(mutex_);
};

/// Pool used by the library's internal hot paths (tensor kernels, strategy
/// codec work) when the caller does not pass one explicitly. Defaults to
/// ThreadPool::global(); FederatedRunner::run(), benchmarks and tests
/// substitute their own pool to control the lane count. Not synchronized —
/// swap only while no kernels are running.
ThreadPool& compute_pool();

/// Replaces the compute pool (nullptr restores the process-wide default).
/// The caller keeps ownership of `pool`, which must outlive the replacement.
void set_compute_pool(ThreadPool* pool);

/// Installs `pool` as the compute pool for the enclosing scope and restores
/// whatever was installed before (an override or the default) when the scope
/// ends, also on unwinding.
class ScopedComputePool {
 public:
  explicit ScopedComputePool(ThreadPool& pool);
  ~ScopedComputePool();

  ScopedComputePool(const ScopedComputePool&) = delete;
  ScopedComputePool& operator=(const ScopedComputePool&) = delete;

 private:
  ThreadPool* previous_;
};

}  // namespace apf::util
