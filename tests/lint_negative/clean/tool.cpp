// lint-place: fuzz/
// A tool tree may include any src module and its own tree.
#include "core/apf_manager.h"
#include "fuzz/targets.h"

int drive() { return 0; }
