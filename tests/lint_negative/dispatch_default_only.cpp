// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/transport/
//
// A switch that names every enumerator yet still carries a `default:`: the
// default alone is the finding, since it would swallow an enumerator added
// later.
namespace fixture {

enum class Lane : unsigned char { kStrategy = 0, kAuxiliary = 1 };

int dispatch(Lane lane) {
  switch (lane) {
    case Lane::kStrategy:
      return 1;
    case Lane::kAuxiliary:
      return 2;
    default:  // lint-expect: exhaustive-dispatch
      return 0;
  }
}

}  // namespace fixture
