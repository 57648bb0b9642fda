#include "fl/flat_view.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/error.h"

namespace apf::fl {

FlatParamView::FlatParamView(nn::Module& module) {
  for (const auto& p : module.parameters()) {
    segments_.push_back({p.param->value.raw(), p.param->numel()});
    dim_ += p.param->numel();
  }
  APF_CHECK(dim_ > 0);
}

// lint-apf: allow-entry-check(out is a pure output buffer, resized here)
void FlatParamView::gather(std::vector<float>& out) const {
  out.resize(dim_);
  std::size_t offset = 0;
  for (const auto& seg : segments_) {
    std::copy(seg.data, seg.data + seg.size, out.data() + offset);
    offset += seg.size;
  }
}

void FlatParamView::scatter(std::span<const float> flat) {
  APF_CHECK(flat.size() == dim_);
  std::size_t offset = 0;
  for (const auto& seg : segments_) {
    std::copy(flat.data() + offset, flat.data() + offset + seg.size, seg.data);
    offset += seg.size;
  }
}

void FlatParamView::pin_masked(const Bitmap& mask,
                               std::span<const float> anchor) {
  APF_CHECK(mask.size() == dim_);
  APF_CHECK(anchor.size() == dim_);
  // Walk the mask a word at a time, skipping all-clear words; segments need
  // not start on a word boundary, so the words at a segment's edges are
  // trimmed to its own bits.
  constexpr std::size_t kWordBits = 64;
  const auto words = mask.words();
  std::size_t offset = 0;
  for (const auto& seg : segments_) {
    const std::size_t end = offset + seg.size;
    for (std::size_t w = offset / kWordBits; w * kWordBits < end; ++w) {
      std::uint64_t bits = words[w];
      if (bits == 0) continue;
      const std::size_t base = w * kWordBits;
      if (base < offset) bits &= ~std::uint64_t{0} << (offset - base);
      if (end - base < kWordBits) {
        bits &= (std::uint64_t{1} << (end - base)) - 1;
      }
      for (; bits != 0; bits &= bits - 1) {
        const std::size_t j = base + static_cast<std::size_t>(
                                         std::countr_zero(bits));
        seg.data[j - offset] = anchor[j];
      }
    }
    offset = end;
  }
}

}  // namespace apf::fl
