#include "fuzz/state_oracle.h"

#include <cstring>
#include <sstream>
#include <string>

#include "compress/cmfl.h"
#include "compress/error_feedback.h"
#include "compress/wrappers.h"
#include "core/apf_manager.h"
#include "core/strawmen.h"
#include "util/bytes.h"

namespace apf::fuzz {

namespace {

void append_string(ByteWriter& writer, const std::string& s) {
  writer.u32(static_cast<std::uint32_t>(s.size()));
  writer.raw({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

void append_floats(ByteWriter& writer, std::span<const float> values) {
  writer.u32(static_cast<std::uint32_t>(values.size()));
  for (const float v : values) writer.f32(v);  // bit-exact, NaN included
}

void append_stream(ByteWriter& writer, const std::ostringstream& os) {
  const std::string s = os.str();
  append_string(writer, s);
}

void append_residuals(ByteWriter& writer,
                      const std::vector<std::vector<float>>& residuals) {
  writer.u32(static_cast<std::uint32_t>(residuals.size()));
  for (const auto& r : residuals) append_floats(writer, r);
}

}  // namespace

std::vector<std::uint8_t> snapshot_strategy(const fl::SyncStrategy& strategy) {
  ByteWriter writer;
  append_string(writer, strategy.name());
  append_floats(writer, strategy.global_params());
  const Bitmap* mask = strategy.frozen_mask();
  writer.u8(mask != nullptr ? 1 : 0);
  if (mask != nullptr) {
    writer.u32(static_cast<std::uint32_t>(mask->size()));
    writer.raw(mask->to_bytes());
    append_floats(writer, strategy.frozen_anchor());
  }
  // Stateful strategies additionally contribute their complete persistent
  // state, so drift in EMA statistics, controller periods, exclusion masks
  // or counters is caught even when the observable surface looks intact.
  if (const auto* apf =
          dynamic_cast<const core::ApfManager*>(&strategy)) {
    std::ostringstream os(std::ios::binary);
    apf->save_state(os);
    append_stream(writer, os);
  } else if (const auto* strawman =
                 dynamic_cast<const core::StrawmanBase*>(&strategy)) {
    std::ostringstream os(std::ios::binary);
    strawman->save_state(os);
    append_stream(writer, os);
  } else if (const auto* sparse =
                 dynamic_cast<const compress::ErrorFeedbackSync*>(
                     &strategy)) {
    append_residuals(writer, sparse->residuals());
  } else if (const auto* cmfl =
                 dynamic_cast<const compress::CmflSync*>(&strategy)) {
    append_floats(writer, cmfl->prev_update());
    writer.u64(cmfl->considered());
    writer.u64(cmfl->accepted());
  } else if (const auto* quant =
                 dynamic_cast<const compress::UpdateQuantizedSync*>(
                     &strategy)) {
    // Wrappers snapshot the wrapped strategy recursively: a rejected round
    // must leave the inner EMA / freezing state untouched, not just the
    // wrapper's delegated observable surface.
    const std::vector<std::uint8_t> inner = snapshot_strategy(quant->inner());
    writer.u32(static_cast<std::uint32_t>(inner.size()));
    writer.raw(inner);
  }
  return writer.take();
}

}  // namespace apf::fuzz
