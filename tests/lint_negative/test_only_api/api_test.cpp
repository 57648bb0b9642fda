// Fixture support for tools/apf_lint — NOT part of the build.
// lint-place: tests/
//
// References from tests/ never make a name live.
#include "util/api.h"

int check() { return only_tested() + CountingHook().fired(); }
