// lint-place: src/util/
#include "util/cyc_b.h"
