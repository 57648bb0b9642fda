// lint-place: src/util/
#include "fuzz/targets.h"  // lint-expect: layering
