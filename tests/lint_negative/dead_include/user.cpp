// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/nn/
//
// Includes util/helper.h but uses none of the names it provides.
#include "util/helper.h"  // lint-expect: dead-include

int twice(int x) { return 2 * x; }
