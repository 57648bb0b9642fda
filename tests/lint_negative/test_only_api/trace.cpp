// Fixture support for tools/apf_lint — NOT part of the build.
// lint-place: perfbench/
//
// perfbench/ is read for references and never linted: the raw mutex below
// would fire capability-raw-mutex in any linted tree.
#include <mutex>

#include "util/api.h"

std::mutex trace_mutex;

int traced() { return used_by_perfbench(); }
