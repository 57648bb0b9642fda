// Lane-local scratch for the recurrent backwards.
//
// LSTM and GRU keep every step's gate gradients for one backward, so that
// they fold the weight gradients once over all steps. That buffer is dead
// between backwards, so it lives once per thread (a pool lane runs one
// backward at a time) rather than once per model, where each of a run's
// client models would hold its own copy.
#pragma once

#include <cstddef>
#include <vector>

namespace apf::nn {

/// A buffer of at least `count` floats that belongs to the calling thread
/// and is reused by every later call on it, so the caller must be done with
/// it before code on the same thread asks again. Its contents are left
/// from the last use.
inline float* lane_scratch(std::size_t count) {
  thread_local std::vector<float> buffer;
  if (buffer.size() < count) buffer.resize(count);
  return buffer.data();
}

}  // namespace apf::nn
