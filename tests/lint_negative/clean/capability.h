// Fixture for tools/apf_lint — NOT part of the build. No file of clean/
// carries a lint-expect marker, so the whole directory must stay clean.
// Here: a documented public APF_REQUIRES, an undocumented private one, a
// guarded member and a waived member.
// lint-place: src/util/
#pragma once
#include "util/annotations.h"

class Tally {  // lint-apf: allow-test-only-api(fixture stub)
 public:
  // Caller must hold mutex_ across the batch.
  void add_locked(int v) APF_REQUIRES(mutex_);  // lint-apf: allow-test-only-api(fixture stub)

 private:
  void drain() APF_REQUIRES(mutex_);
  apf::util::Mutex mutex_;
  int total_ APF_GUARDED_BY(mutex_) = 0;
  // lint-apf: allow-capability-unguarded-member(written once in the ctor)
  int capacity_ = 0;
};
