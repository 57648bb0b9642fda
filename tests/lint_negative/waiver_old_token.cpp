// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/transport/
//
// Waivers in the grammar of the analyzers apf_lint replaced: a retired
// token, and the retired apf-lint prefix. Each is itself a finding, and
// neither suppresses anything.
#include <cstddef>

// lint-apf: allow-weak-type(bytes feed an atomic)  // lint-expect: waiver
void note_queued(std::size_t bytes);  // lint-expect: strong-type

// apf-lint: allow-strong-type(bytes feed an atomic)  // lint-expect: waiver
void note_sent(std::size_t bytes);  // lint-expect: strong-type
