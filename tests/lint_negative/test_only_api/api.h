// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/util/
//
// One name only a test reaches, one a bench reaches, one only perfbench
// reaches, and an override reached through its base.
#pragma once

int only_tested();  // lint-expect: test-only-api
int used_by_bench();
int used_by_perfbench();

class Hook {
 public:
  virtual ~Hook() = default;
  virtual int fire() const = 0;
};

class CountingHook : public Hook {
 public:
  int fire() const override;
  int fired() const;  // lint-expect: test-only-api
};
