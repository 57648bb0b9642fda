// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/fl/
//
// Ad-hoc randomness outside apf::Rng: clients could no longer derive the
// same freezing mask from shared seeds.
#include <cstdlib>

int pick_client(int n) { return std::rand() % n; }  // lint-expect: determinism
