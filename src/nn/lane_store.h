// Per-lane storage for the state a training-mode backward reads.
//
// A layer's backward reads buffers that its training-mode forward wrote:
// the recurrent step caches, Conv2d's padded input, BatchNorm2d's xhat, the
// ReLU and Dropout masks, Linear's input, MaxPool2d's argmax. They are dead
// between a backward and the next training forward, and a pool lane trains
// one client at a time (FederatedRunner runs one client's steps to
// completion on one lane), so they live in one store per thread instead of
// in each model: a run keeps one model's backward state per lane, not one
// per client.
//
// The rule: a training-mode forward takes its buffers through a LaneBuffer,
// which claims a region of the calling thread's store and records the
// store's generation. recycle_lane_store() starts a new generation, whose
// claims reuse the regions from the start; a backward whose region was
// recycled since its forward, or that runs on another thread, throws the
// layer's "needs a training-mode forward first" Error instead of reading
// another model's data. Without a recycle (a test or bench that drives a
// model by hand) each LaneBuffer keeps reusing its own region, as a member
// buffer would. Eval-mode forwards take nothing from the store.
//
// lane_transient() is the store's other form: one buffer per thread that
// lives for one call (the recurrent backwards' gate gradients).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace apf::nn {

/// Starts a new generation of the calling thread's store: every region
/// claimed before goes back to the store, and a backward that would read
/// one throws. FederatedRunner calls it before each client's local training.
void recycle_lane_store();

/// At least `count` floats of the calling thread's store that live until
/// the next call on the same thread; their contents are left from the last
/// use. For state that one call creates and drops.
float* lane_transient(std::size_t count);

/// A layer's handle on the region of the calling thread's store that holds
/// its backward state. Parameters, gradients and anything that outlives a
/// step stay in the layer.
class LaneBuffer {
 public:
  LaneBuffer() = default;
  /// Gives the region back when it belongs to the calling thread's current
  /// generation, so a model built and dropped by hand leaves nothing behind.
  ~LaneBuffer();
  LaneBuffer(const LaneBuffer&) = delete;
  LaneBuffer& operator=(const LaneBuffer&) = delete;

  /// For a training-mode forward: room for `count` T's in the calling
  /// thread's store (this handle's region while its generation lasts, else
  /// a newly claimed one), contents unspecified.
  template <typename T>
  T* hold(std::size_t count) {
    return static_cast<T*>(claim(count * sizeof(T)));
  }

  /// For an eval-mode forward: holds nothing for backward (the region stays
  /// this handle's for its next hold()).
  void drop() { held_ = false; }

  /// Whether the last forward held a region (a hold() since the last drop()).
  bool held() const { return held_; }

  /// For backward: what the last hold() returned, as T's. Throws Error with
  /// `what` unless that hold() came after the last drop(), on this thread,
  /// and its store has not been recycled since.
  template <typename T>
  std::span<T> get(const char* what) const {
    return {static_cast<T*>(live(what)), bytes_ / sizeof(T)};
  }

 private:
  void* claim(std::size_t bytes);
  void* live(const char* what) const;

  std::uint64_t generation_ = 0;  // the store generation of slot_; 0: none
  std::size_t slot_ = 0;
  std::size_t bytes_ = 0;  // of the last hold()
  bool held_ = false;
};

}  // namespace apf::nn
