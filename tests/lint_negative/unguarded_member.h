// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/util/
//
// A Mutex-owning class whose counter declares no protection.
#pragma once
#include "util/annotations.h"

class Counter {
 public:
  void bump();

 private:
  apf::util::Mutex mutex_;
  int count_ = 0;  // lint-expect: capability-unguarded-member
};
