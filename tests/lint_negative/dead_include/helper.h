// Fixture support for tools/apf_lint — NOT part of the build.
// lint-place: src/util/
#pragma once

int helper_value();  // lint-apf: allow-test-only-api(fixture stub)
