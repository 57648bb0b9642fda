// Compile-time lock discipline: Clang Thread Safety Analysis macros and the
// annotated synchronization wrappers the whole repo must use.
//
// Every mutex-protected structure in src/ and fuzz/ declares its protection
// relationship with these attributes, and CI compiles the tree with clang's
// -Wthread-safety -Wthread-safety-beta promoted to errors, so a read of a
// guarded member without its lock — or a lock-order inversion against a
// declared APF_ACQUIRED_AFTER edge — is rejected before it can become a
// TSan-only race. Under GCC (which has no thread-safety analysis) every
// macro expands to nothing and the wrappers behave exactly like the
// std::mutex constructs they replace.
//
// Raw std::mutex / std::lock_guard / std::unique_lock / std::scoped_lock /
// std::condition_variable are banned outside this header (enforced by the
// `capability-*` rules of tools/apf_lint): the analysis only sees
// relationships expressed through annotated types, so one unannotated lock
// is a hole in the whole proof. Use apf::util::Mutex + MutexLock + CondVar.
//
// See docs/STATIC_ANALYSIS.md for the macro table, waiver syntax, and how to
// read the analyzer's errors.
#pragma once

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define APF_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef APF_THREAD_ANNOTATION
#define APF_THREAD_ANNOTATION(x)  // no-op: GCC has no thread-safety analysis
#endif

// -- attribute macros --------------------------------------------------------
//
// APF_CAPABILITY(name)        type is a capability (a lock, or a role such as
//                             the fuzz coverage collector)
// APF_SCOPED_CAPABILITY       RAII type that acquires in its constructor and
//                             releases in its destructor
// APF_GUARDED_BY(mu)          member may only be touched while `mu` is held
// APF_PT_GUARDED_BY(mu)       pointee of this pointer member is guarded by mu
// APF_REQUIRES(...)           caller must already hold the listed capabilities
// APF_ACQUIRE(...)            function acquires them (held on return)
// APF_RELEASE(...)            function releases them (must be held on entry)
// APF_EXCLUDES(...)           caller must NOT hold them (non-reentrancy)
// APF_ACQUIRED_BEFORE/AFTER   static lock-ordering edges (checked under
//                             -Wthread-safety-beta)
// APF_RETURN_CAPABILITY(mu)   function returns a reference to `mu`
// APF_NO_THREAD_SAFETY_ANALYSIS  opt a function body out (last resort; say why)

#define APF_CAPABILITY(x) APF_THREAD_ANNOTATION(capability(x))
#define APF_SCOPED_CAPABILITY APF_THREAD_ANNOTATION(scoped_lockable)
#define APF_GUARDED_BY(x) APF_THREAD_ANNOTATION(guarded_by(x))
#define APF_PT_GUARDED_BY(x) APF_THREAD_ANNOTATION(pt_guarded_by(x))
#define APF_REQUIRES(...) \
  APF_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define APF_ACQUIRE(...) \
  APF_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define APF_RELEASE(...) \
  APF_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define APF_EXCLUDES(...) APF_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define APF_ACQUIRED_BEFORE(...) \
  APF_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define APF_ACQUIRED_AFTER(...) \
  APF_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define APF_RETURN_CAPABILITY(x) APF_THREAD_ANNOTATION(lock_returned(x))
#define APF_NO_THREAD_SAFETY_ANALYSIS \
  APF_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace apf::util {

// -- annotated wrappers ------------------------------------------------------

/// std::mutex carrying the `capability` attribute so the analysis can track
/// which members it guards. Also a BasicLockable, so CondVar can wait on it
/// directly without exposing a raw std::unique_lock at call sites.
class APF_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() APF_ACQUIRE() { m_.lock(); }
  void unlock() APF_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

/// Scoped lock: the only sanctioned way to hold a Mutex. Prefer a nested
/// block over manual unlock so the analysis sees the critical section's
/// exact extent.
class APF_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) APF_ACQUIRE(mu) : mu_(mu) { mu.lock(); }
  ~MutexLock() APF_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to Mutex. There is deliberately no predicate
/// overload: write the wait as `while (!cond) cv.wait(mu);` inside the
/// MutexLock scope, so the predicate's reads of guarded state happen where
/// the analysis can see the lock is held (a lambda body would be analyzed
/// without that context).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, blocks until notified, reacquires `mu`.
  /// Subject to spurious wakeups — always re-check the condition in a loop.
  void wait(Mutex& mu) APF_REQUIRES(mu) { cv_.wait(mu); }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace apf::util
