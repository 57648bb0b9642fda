// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/fl/
//
// The paper's core claim is that frozen coordinates are bit-stable between
// syncs, so frozen/mask state may only change through the blessed
// mask-respecting APIs in core/ (FreezeController, ApfManager). A strategy
// poking a bit into its own frozen mask mid-round silently unfreezes a
// coordinate without the controller's bookkeeping.
#include <cstddef>

namespace fixture {

struct Bitmap {
  void set(std::size_t index, bool value);
};

struct RogueMaskSync {
  void tweak_mask(std::size_t index) {
    frozen_mask_.set(index, true);  // direct frozen-state write  // lint-expect: frozen-write
  }

  Bitmap frozen_mask_;
};

}  // namespace fixture
