#include "transport/bus.h"

#include <algorithm>

#include "util/error.h"

namespace apf::transport {

Bus::Bus(NetworkModel network) : network_(network) {
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
  round_peak_queued_bytes_ = queued_bytes_;
  // Re-inject frames a kCarryOver finish left behind. They keep their
  // original round id and seq (staleness bookkeeping depends on both) and
  // are NOT re-charged: bytes and up_frames were counted in the round that
  // pushed them. carried_ is in ascending (client, seq) order, so each
  // link's inbox stays seq-sorted with carried frames ahead of new pushes.
  for (Frame& frame : carried_) {
    LinkState& link = links_[frame.client];
    if (link.next_seq <= frame.seq) link.next_seq = util::next_seq(frame.seq);
    link.inbox.push_back(std::move(frame));
  }
  carried_.clear();
}

Frame Bus::open_frame(LinkState& link, ClientId client, Frame::Kind kind,
                      std::vector<std::uint8_t> payload) {
  Frame frame;
  frame.client = client;
  frame.round = round_;
  frame.kind = kind;
  frame.seq = link.next_seq;
  link.next_seq = util::next_seq(link.next_seq);
  frame.payload = std::move(payload);
  note_queued(frame.size_bytes());
  return frame;
}

SeqNo Bus::push(ClientId client, Frame::Kind kind,
                std::vector<std::uint8_t> payload) {
  APF_CHECK_MSG(in_round_, "push outside begin_round/finish_round");
  LinkState& link = links_[client];
  const Frame& frame =
      link.inbox.emplace_back(open_frame(link, client, kind, std::move(payload)));
  link.up_bytes += frame.size_bytes();
  ++link.up_frames;
  return frame.seq;
}

SeqNo Bus::deliver(ClientId client, Frame::Kind kind,
                   std::vector<std::uint8_t> payload) {
  APF_CHECK_MSG(in_round_, "deliver outside begin_round/finish_round");
  LinkState& link = links_[client];
  const Frame& frame = link.mailbox.emplace_back(
      open_frame(link, client, kind, std::move(payload)));
  link.down_bytes += frame.size_bytes();
  ++link.down_frames;
  return frame.seq;
}

void Bus::drain(std::vector<Frame>& queue, std::vector<Frame>& out) {
  for (Frame& frame : queue) {
    note_taken(frame.size_bytes());
    out.push_back(std::move(frame));
  }
  queue.clear();
}

std::vector<Frame> Bus::take_pushes() {
  APF_CHECK_MSG(in_round_, "take_pushes outside begin_round/finish_round");
  std::vector<Frame> out;
  for (auto& entry : links_) drain(entry.second.inbox, out);
  return out;
}

std::vector<Frame> Bus::take_pushes(ClientId client) {
  APF_CHECK_MSG(in_round_, "take_pushes outside begin_round/finish_round");
  std::vector<Frame> out;
  const auto it = links_.find(client);
  if (it != links_.end()) drain(it->second.inbox, out);
  return out;
}

std::vector<Frame> Bus::take_pulls(ClientId client) {
  APF_CHECK_MSG(in_round_, "take_pulls outside begin_round/finish_round");
  std::vector<Frame> out;
  const auto it = links_.find(client);
  if (it != links_.end()) drain(it->second.mailbox, out);
  return out;
}

const Bus::LinkState* Bus::find(ClientId client) const {
  const auto it = links_.find(client);
  return it == links_.end() ? nullptr : &it->second;
}

double Bus::link_comm_seconds(ClientId client) const {
  const LinkState* link = find(client);
  return link == nullptr ? 0.0 : price(*link);
}

double Bus::price(const LinkState& link) const {
  return network_.client_upload_seconds(link.up_bytes) +
         network_.client_download_seconds(link.down_bytes);
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
  for (auto& [id, link] : links_) {
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
    stats.link_comm_seconds.emplace_back(id, price(link));
    ++stats.active_links;
  }
  stats.server_seconds = network_.server_seconds(stats.total_bytes);
  in_round_ = false;
  links_.clear();
  return stats;
}

void Bus::note_queued(ByteCount bytes) {
  queued_bytes_ += bytes;
  peak_queued_bytes_ = std::max(peak_queued_bytes_, queued_bytes_);
  round_peak_queued_bytes_ = std::max(round_peak_queued_bytes_, queued_bytes_);
}

void Bus::note_taken(ByteCount bytes) {
  APF_CHECK(bytes <= queued_bytes_);
  queued_bytes_ = ByteCount(queued_bytes_.value() - bytes.value());
}

}  // namespace apf::transport
