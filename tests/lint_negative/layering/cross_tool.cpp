// lint-place: fuzz/
#include "bench/harness.h"  // lint-expect: layering
