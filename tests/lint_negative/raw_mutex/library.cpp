// lint-place: src/fl/
#include <mutex>

std::mutex g_m;  // lint-expect: capability-raw-mutex
void touch() { std::lock_guard<std::mutex> lock(g_m); }  // lint-expect: capability-raw-mutex
