// Fixture support for tools/apf_lint — NOT part of the build.
// lint-place: bench/
#include "util/api.h"

int run_bench() {
  CountingHook hook;
  const Hook& base = hook;
  return used_by_bench() + base.fire();
}
