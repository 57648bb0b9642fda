// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/fl/
//
// A raw, detached thread: thread-count-dependent results, and a lifetime
// that can outlive the tensors it touches.
#include <thread>

void spawn() {
  std::thread worker([] {});  // lint-expect: concurrency-hygiene
  worker.detach();  // lint-expect: concurrency-hygiene
}
