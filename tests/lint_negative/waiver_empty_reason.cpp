// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/transport/
//
// Tests a waiver with an empty reason: the waiver is
// itself a finding, and it suppresses nothing.
#include <cstddef>

// lint-apf: allow-strong-type()  // lint-expect: waiver
void note_queued(std::size_t bytes);  // lint-expect: strong-type
