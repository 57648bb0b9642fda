// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/fl/
//
// The library must not depend on its tests.
#include "tests/test_helpers.h"  // lint-expect: test-include
