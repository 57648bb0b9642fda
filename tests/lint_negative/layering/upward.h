// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/tensor/
//
// Each file of this fixture breaks the include hierarchy one way: tensor
// including fl (upward), a util include cycle (reported in cyc_b.h, which
// closes it), a tool tree including another (fuzz -> bench), and src
// including a tool tree.
#include "fl/client.h"  // lint-expect: layering
