// Compile-fail fixture: reading ThreadPool's posted-task queue without
// holding mutex_ must be rejected by -Werror=thread-safety-analysis, which
// proves the real pool's posted-task members are APF_GUARDED_BY(mutex_).
// tools/check_thread_safety.sh asserts this TU does NOT compile; it is never
// part of the normal build (tests/CMakeLists.txt does not list it).
//
// The standard headers come first so that only the pool's own header sees
// the access override that lets this file name its private members.
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#define private public
#include "util/thread_pool.h"
#undef private

namespace {

// Violation: posted_ is guarded by mutex_, which is not held here.
std::size_t queued_unlocked(apf::util::ThreadPool& pool) {
  return pool.posted_.size();
}

}  // namespace

int drive() {
  apf::util::ThreadPool pool(1);
  pool.post([] {});
  return static_cast<int>(queued_unlocked(pool));
}
