// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/transport/
//
// Dispatch over a wire/transport enum must name every enumerator and must
// not carry a `default:` — a default silently swallows enumerators added
// later, and decode paths must reject out-of-range tags *before* the switch
// (see src/wire/codec.cpp), never absorb them inside it.
namespace fixture {

enum class Kind : unsigned char {
  kStrategy = 0,
  kAuxiliary = 1,
  kControl = 2,
};

int dispatch_with_default(Kind kind) {
  switch (kind) {  // lint-expect: exhaustive-dispatch
    case Kind::kStrategy:
      return 1;
    case Kind::kAuxiliary:
      return 2;
    default:  // BUG: absorbs kControl and any future enumerator  // lint-expect: exhaustive-dispatch
      return 0;
  }
}

int dispatch_missing_case(Kind kind) {
  switch (kind) {  // BUG: kControl has no case  // lint-expect: exhaustive-dispatch
    case Kind::kStrategy:
      return 1;
    case Kind::kAuxiliary:
      return 2;
  }
  return 0;
}

}  // namespace fixture
