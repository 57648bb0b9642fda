// Negative fixture for tools/apf_lint — NOT part of the build.
// lint-place: src/fl/
//
// The other three ways a strategy can rewrite frozen state behind the
// controller's back: assigning a frozen coordinate, const_casting the
// read-only frozen-mask accessor, and handing the mask to a helper that
// mutates its reference parameter.
#include <cstddef>
#include <vector>

namespace fixture {

struct Bitmap {
  void set(std::size_t index, bool value);
};

struct Manager {
  const Bitmap& frozen_mask() const;
};

void clear_bit(Bitmap& bits, std::size_t index) { bits.set(index, false); }

struct RogueAnchorSync {
  void pin(std::size_t index, float value) {
    frozen_anchor_[index] = value;  // lint-expect: frozen-write
  }

  void unfreeze() {
    auto& bits = const_cast<Bitmap&>(manager_->frozen_mask());  // lint-expect: frozen-write
    (void)bits;
  }

  void drop(std::size_t index) {
    clear_bit(frozen_mask_, index);  // lint-expect: frozen-write
  }

  std::vector<float> frozen_anchor_;
  Bitmap frozen_mask_;
  Manager* manager_ = nullptr;
};

}  // namespace fixture
