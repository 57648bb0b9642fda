// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/util/
//
// A Mutex-owning class whose counter declares no protection.
#pragma once
#include "util/annotations.h"

class Counter {  // lint-apf: allow-test-only-api(fixture stub)
 public:
  void bump();  // lint-apf: allow-test-only-api(fixture stub)

 private:
  apf::util::Mutex mutex_;
  int count_ = 0;  // lint-expect: capability-unguarded-member
};
