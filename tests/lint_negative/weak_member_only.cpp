// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/transport/
//
// A bare-integer id as a class member, with no function parameter in the
// file: the strong-type member check must fire on its own.
namespace fixture {

struct Frameish {
  unsigned long client;  // lint-expect: strong-type
};

}  // namespace fixture
