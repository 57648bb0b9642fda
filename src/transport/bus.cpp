#include "transport/bus.h"

#include <algorithm>

#include "util/error.h"

namespace apf::transport {

Bus::Bus(NetworkModel network, std::size_t shard_count)
    : network_(network), links_(shard_count) {
  network_.validate("transport::Bus");
}

void Bus::begin_round(RoundId round) {
  APF_CHECK_MSG(!in_round_, "begin_round while round " << round_
                                                       << " is still open");
  APF_CHECK(round.value() > 0);
  round_ = round;
  in_round_ = true;
  // The per-round peak starts at the bytes still in flight: carried frames
  // were note_queued() at push time and have not been taken yet.
  round_peak_queued_bytes_.store(queued_bytes_.load(std::memory_order_relaxed),
                                 std::memory_order_relaxed);
  // Re-inject frames a kCarryOver finish left behind. They keep their
  // original round id and seq (staleness bookkeeping depends on both) and
  // are NOT re-charged: bytes and up_frames were counted in the round that
  // pushed them. carried_ is in ascending (client, seq) order, so each
  // link's inbox stays seq-sorted with carried frames ahead of new pushes.
  for (Frame& frame : carried_) {
    LinkState& link = links_.obtain(frame.client);
    if (link.next_seq <= frame.seq) link.next_seq = util::next_seq(frame.seq);
    link.inbox.push_back(std::move(frame));
  }
  carried_.clear();
}

SeqNo Bus::push(ClientId client, Frame::Kind kind,
                std::vector<std::uint8_t> payload) {
  APF_CHECK_MSG(in_round_, "push outside begin_round/finish_round");
  LinkState& link = links_.obtain(client);
  Frame frame;
  frame.client = client;
  frame.round = round_;
  frame.kind = kind;
  frame.seq = link.next_seq;
  link.next_seq = util::next_seq(link.next_seq);
  const SeqNo seq = frame.seq;
  const std::size_t bytes = payload.size();
  frame.payload = std::move(payload);
  link.up_bytes += ByteCount(bytes);
  ++link.up_frames;
  link.inbox.push_back(std::move(frame));
  note_queued(bytes);
  return seq;
}

SeqNo Bus::deliver(ClientId client, Frame::Kind kind,
                   std::vector<std::uint8_t> payload) {
  APF_CHECK_MSG(in_round_, "deliver outside begin_round/finish_round");
  LinkState& link = links_.obtain(client);
  Frame frame;
  frame.client = client;
  frame.round = round_;
  frame.kind = kind;
  frame.seq = link.next_seq;
  link.next_seq = util::next_seq(link.next_seq);
  const SeqNo seq = frame.seq;
  const std::size_t bytes = payload.size();
  frame.payload = std::move(payload);
  link.down_bytes += ByteCount(bytes);
  ++link.down_frames;
  link.mailbox.push_back(std::move(frame));
  note_queued(bytes);
  return seq;
}

std::vector<Frame> Bus::take_pushes() {
  APF_CHECK_MSG(in_round_, "take_pushes outside begin_round/finish_round");
  std::vector<Frame> out;
  links_.for_each_ordered([&](ClientId /*id*/, LinkState& link) {
    for (Frame& frame : link.inbox) {
      note_taken(frame.payload.size());
      out.push_back(std::move(frame));
    }
    link.inbox.clear();
  });
  return out;
}

std::vector<Frame> Bus::take_pushes(ClientId client) {
  APF_CHECK_MSG(in_round_, "take_pushes outside begin_round/finish_round");
  std::vector<Frame> out;
  LinkState* link = links_.find(client);
  if (link == nullptr) return out;
  for (Frame& frame : link->inbox) {
    note_taken(frame.payload.size());
    out.push_back(std::move(frame));
  }
  link->inbox.clear();
  return out;
}

std::vector<Frame> Bus::take_pulls(ClientId client) {
  APF_CHECK_MSG(in_round_, "take_pulls outside begin_round/finish_round");
  std::vector<Frame> out;
  LinkState* link = links_.find(client);
  if (link == nullptr) return out;
  for (Frame& frame : link->mailbox) {
    note_taken(frame.payload.size());
    out.push_back(std::move(frame));
  }
  link->mailbox.clear();
  return out;
}

ByteCount Bus::link_up_bytes(ClientId client) const {
  const LinkState* link = links_.find(client);
  return link == nullptr ? ByteCount(0) : link->up_bytes;
}

ByteCount Bus::link_down_bytes(ClientId client) const {
  const LinkState* link = links_.find(client);
  return link == nullptr ? ByteCount(0) : link->down_bytes;
}

RoundStats Bus::finish_round(FinishPolicy policy) {
  APF_CHECK_MSG(in_round_, "finish_round without begin_round");
  const bool carry = policy == FinishPolicy::kCarryOver;
  RoundStats stats;
  stats.round = round_;
  // Ascending client id: the same order (and therefore the same double
  // addition sequence) the pre-bus runner used, so the totals are
  // bit-identical to the legacy in-memory accounting. (The ByteCount sum is
  // an exact integer; converting it to double once is identical to summing
  // the exactly-representable per-link doubles.)
  links_.for_each_ordered([&](ClientId id, LinkState& link) {
    if (carry) {
      // Straggler pushes outlive the round; their bytes were charged at
      // push time and stay queued until a later round takes them.
      stats.carried_frames += link.inbox.size();
      for (Frame& frame : link.inbox) carried_.push_back(std::move(frame));
      link.inbox.clear();
    } else {
      APF_CHECK_MSG(link.inbox.empty(),
                    "round " << round_ << ": client " << id << " pushed "
                             << link.inbox.size()
                             << " frame(s) the server never took");
    }
    APF_CHECK_MSG(link.mailbox.empty(),
                  "round " << round_ << ": client " << id << " never took "
                           << link.mailbox.size()
                           << " delivered frame(s)");
    stats.total_bytes += link.up_bytes + link.down_bytes;
    stats.frames_up += link.up_frames;
    stats.frames_down += link.down_frames;
    double comm = network_.client_upload_seconds(link.up_bytes) +
                  network_.client_download_seconds(link.down_bytes);
    if (network_.frame_latency_seconds > 0.0) {
      comm += network_.frame_latency_seconds *
              static_cast<double>(link.up_frames + link.down_frames);
    }
    stats.link_comm_seconds.emplace_back(id, comm);
    stats.max_client_comm_seconds =
        std::max(stats.max_client_comm_seconds, comm);
    ++stats.active_links;
  });
  stats.server_seconds = network_.server_seconds(stats.total_bytes);
  in_round_ = false;
  links_.clear();
  return stats;
}

// lint-apf: allow-strong-type(feeds std::atomic counters directly)
void Bus::note_queued(std::size_t bytes) {
  const std::size_t now =
      queued_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::size_t peak = peak_queued_bytes_.load(std::memory_order_relaxed);
  while (now > peak && !peak_queued_bytes_.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  std::size_t round_peak =
      round_peak_queued_bytes_.load(std::memory_order_relaxed);
  while (now > round_peak &&
         !round_peak_queued_bytes_.compare_exchange_weak(
             round_peak, now, std::memory_order_relaxed)) {
  }
}

// lint-apf: allow-strong-type(feeds std::atomic counters directly)
void Bus::note_taken(std::size_t bytes) {
  queued_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
}

}  // namespace apf::transport
