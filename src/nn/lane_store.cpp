#include "nn/lane_store.h"

#include <atomic>
#include <memory>
#include <vector>

#include "util/error.h"

namespace apf::nn {

namespace {

// One counter for every store and recycle, so a generation names one
// thread's store between two recycles and a handle never matches another's.
std::atomic<std::uint64_t> g_generations{1};

std::uint64_t fresh_generation() {
  return g_generations.fetch_add(1, std::memory_order_relaxed);
}

struct Region {
  std::unique_ptr<std::byte[]> data;
  std::size_t bytes = 0;

  // Contents need not survive a resize: every holder writes before it reads.
  void* reserve(std::size_t need) {
    if (bytes < need) {
      data = std::make_unique_for_overwrite<std::byte[]>(need);
      bytes = need;
    }
    return data.get();
  }
};

struct Store {
  std::uint64_t generation = fresh_generation();
  std::vector<Region> regions;
  std::size_t next = 0;  // regions[next..] are unclaimed in this generation
  std::vector<std::size_t> released;  // claimed in it, their handles gone
  Region transient;
};

// The calling thread's store once built, and null again when it is gone:
// LaneBuffer destructors can run after it at thread exit.
thread_local Store* t_store = nullptr;

Store& local_store() {
  struct Owner {
    Store store;
    Owner() { t_store = &store; }
    ~Owner() { t_store = nullptr; }
  };
  thread_local Owner owner;
  return owner.store;
}

}  // namespace

void recycle_lane_store() {
  Store& store = local_store();
  store.generation = fresh_generation();
  store.next = 0;
  store.released.clear();
}

float* lane_transient(std::size_t count) {
  return static_cast<float*>(
      local_store().transient.reserve(count * sizeof(float)));
}

LaneBuffer::~LaneBuffer() {
  Store* store = t_store;
  if (store != nullptr && store->generation == generation_) {
    store->released.push_back(slot_);
  }
}

void* LaneBuffer::claim(std::size_t bytes) {
  Store& store = local_store();
  if (store.generation != generation_) {
    if (!store.released.empty()) {
      slot_ = store.released.back();
      store.released.pop_back();
    } else {
      if (store.next == store.regions.size()) {
        store.regions.emplace_back();
        // Room to release every region, so ~LaneBuffer never allocates.
        store.released.reserve(store.regions.capacity());
      }
      slot_ = store.next++;
    }
    generation_ = store.generation;
  }
  held_ = true;
  bytes_ = bytes;
  return store.regions[slot_].reserve(bytes);
}

void* LaneBuffer::live(const char* what) const {
  const Store* store = t_store;
  APF_CHECK_MSG(held_ && store != nullptr && store->generation == generation_,
                what);
  return store->regions[slot_].data.get();
}

}  // namespace apf::nn
