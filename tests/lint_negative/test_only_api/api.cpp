// Fixture support for tools/apf_lint — NOT part of the build.
// lint-place: src/util/
//
// Out-of-line definitions do not reference their own names.
#include "util/api.h"

int only_tested() { return 1; }
int used_by_bench() { return 2; }
int used_by_perfbench() { return 3; }
int CountingHook::fire() const { return 4; }
int CountingHook::fired() const { return 5; }
