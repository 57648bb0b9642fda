// lint-place: src/util/
#include "util/cyc_a.h"  // lint-expect: layering
