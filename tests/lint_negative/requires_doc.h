// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/util/
//
// APF_REQUIRES functions that do not say which lock to hold: a public
// member and a namespace-scope declaration.
#pragma once
#include "util/annotations.h"

class Registry {  // lint-apf: allow-test-only-api(fixture stub)
 public:
  void poke() APF_REQUIRES(mutex_);  // lint-expect: capability-requires-doc; lint-apf: allow-test-only-api(fixture stub)

 private:
  apf::util::Mutex mutex_;
};

extern apf::util::Mutex g_registry_mutex;
void flush_registry() APF_REQUIRES(g_registry_mutex);  // lint-expect: capability-requires-doc; lint-apf: allow-test-only-api(fixture stub)
