// lint-place: src/fl/
// Pool-based parallelism, an ordered map, a downward include and a waived
// raw thread: none of it may fire.
#include <map>
#include <thread>

#include "util/thread_pool.h"

int run() {
  std::map<int, int> ordered;
  int s = 0;
  for (const auto& kv : ordered) s += kv.second;
  return s;
}

void spawn() {
  // lint-apf: allow-concurrency-hygiene(a joined helper thread)
  std::thread worker([] {});
  worker.join();
}
