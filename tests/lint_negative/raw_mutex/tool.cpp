// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: fuzz/
//
// Raw std::mutex in a tool tree and in the library (library.cpp): both are
// invisible to Clang Thread Safety Analysis.
#include <mutex>

std::mutex g_tool_mutex;  // lint-expect: capability-raw-mutex
