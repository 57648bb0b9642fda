// In-process message bus: per-link framed channels between clients and the
// server, priced by NetworkModel.
//
// One Bus instance models the star topology of a federated round: every
// client has its own link, a push travels client -> server and a delivery
// travels server -> client. Payloads are the REAL encoded wire buffers
// (docs/WIRE.md); the bus counts their measured sizes and never models a
// byte. Lifecycle per round (docs/TRANSPORT.md):
//
//   begin_round(r)
//     clients:  push(id, kind, payload)          [concurrent, distinct links]
//     server:   take_pushes() -> frames sorted by (client, seq)
//     server:   deliver(id, kind, payload)
//     clients:  take_pulls(id) -> that link's frames in send order
//   finish_round() -> RoundStats
//
// finish_round() checks every frame was consumed (an undelivered frame is a
// routing bug, not traffic), prices each link with the legacy per-round
// arithmetic — upload_seconds(sum of up bytes) + download_seconds(sum of
// down bytes), plus frame_latency_seconds per frame when configured — and
// resets the per-round link state, so bus memory is O(links active this
// round), not O(client universe).
//
// Asynchronous rounds relax exactly one clause: finish_round(kCarryOver)
// lets untaken server-bound pushes (stragglers that missed the commit)
// carry into the next round instead of throwing — see FinishPolicy.
//
// All identifiers crossing this interface are strong types (util/ids.h):
// links are ClientId, rounds RoundId, send order SeqNo, and every byte
// figure a ByteCount, so transposed arguments fail to compile.
//
// Thread safety: push/deliver/take_pulls may run concurrently for DISTINCT
// clients (per-link state lives in a ShardedClientStore; see its contract);
// a single link has a single logical owner on each side. begin_round /
// take_pushes / finish_round belong to the server coordinator thread and
// must not overlap client calls.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "transport/client_store.h"
#include "transport/frame.h"
#include "transport/network.h"

namespace apf::transport {

/// What finish_round() does with a frame nobody consumed.
enum class FinishPolicy : std::uint8_t {
  /// Synchronous contract: every frame must have been taken; an untaken
  /// frame is a routing bug and throws.
  kStrict = 0,
  /// Asynchronous contract: untaken SERVER-BOUND pushes are straggler
  /// frames — they carry into the next round (original round id and seq
  /// preserved, bytes charged once at push time, never re-charged) and
  /// reappear in that round's inbox ahead of new pushes. Untaken
  /// client-bound deliveries are still a routing bug in either policy:
  /// the server chooses when to deliver, so it has no excuse.
  kCarryOver = 1,
};

/// Measured traffic of one round, priced by the NetworkModel.
struct RoundStats {
  RoundId round;
  std::size_t active_links = 0;  // links that carried at least one frame
  std::uint64_t frames_up = 0;
  std::uint64_t frames_down = 0;
  /// Server-bound frames left untaken and carried into the next round
  /// (always 0 under FinishPolicy::kStrict).
  std::uint64_t carried_frames = 0;
  ByteCount total_bytes;  // up + down across all links
  /// BSP barrier: the slowest link's upload + download time.
  double max_client_comm_seconds = 0.0;
  /// Time for the shared server link to carry total_bytes.
  double server_seconds = 0.0;
  /// Per-link comm seconds (upload + download + per-frame latency), in
  /// ascending client id order — what a completion-time round model needs
  /// to pair each client's comm with its own compute.
  std::vector<std::pair<ClientId, double>> link_comm_seconds;
};

class Bus {
 public:
  explicit Bus(NetworkModel network, std::size_t shard_count = 16);

  const NetworkModel& network() const { return network_; }

  /// Arms the bus for round `round` (1-based).
  void begin_round(RoundId round);

  /// Client -> server. The payload must be a real encoded wire buffer; its
  /// size is the charge. Returns the frame's per-link sequence number.
  SeqNo push(ClientId client, Frame::Kind kind,
             std::vector<std::uint8_t> payload);

  /// Server -> client. Same contract as push(), opposite direction.
  SeqNo deliver(ClientId client, Frame::Kind kind,
                std::vector<std::uint8_t> payload);

  /// Server receive: drains every arrived push, sorted by (client id, send
  /// sequence) — the deterministic fold order for streaming aggregation.
  std::vector<Frame> take_pushes();

  /// Server receive, one link: drains only `client`'s inbox in send order
  /// (empty if the link is untouched). The asynchronous server uses this to
  /// take pushes in ARRIVAL order — its own deterministic schedule — while
  /// leaving straggler frames queued for carry-over.
  std::vector<Frame> take_pushes(ClientId client);

  /// Client receive: drains `client`'s mailbox in send order.
  std::vector<Frame> take_pulls(ClientId client);

  /// Per-link byte counters for the round in flight (0 for untouched links).
  ByteCount link_up_bytes(ClientId client) const;
  ByteCount link_down_bytes(ClientId client) const;

  /// Payload bytes currently queued (pushed or delivered, not yet taken).
  ByteCount queued_bytes() const {
    return ByteCount(queued_bytes_.load(std::memory_order_relaxed));
  }

  /// High-water mark of queued_bytes() since construction (never reset).
  ByteCount peak_queued_bytes() const {
    return ByteCount(peak_queued_bytes_.load(std::memory_order_relaxed));
  }

  /// High-water mark of queued_bytes() since the last begin_round() — the
  /// figure per-round windowing bounds (e.g. the million-client bench's
  /// one-encode-window assertion) must use; the lifetime peak above only
  /// ever ratchets up. begin_round() resets it to the bytes still in flight
  /// (carried frames), not to zero.
  ByteCount round_peak_queued_bytes() const {
    return ByteCount(round_peak_queued_bytes_.load(std::memory_order_relaxed));
  }

  /// Closes the round under `policy` (see FinishPolicy). Prices each link in
  /// ascending client id order and resets all per-round link state; carried
  /// pushes (kCarryOver only) re-enter their links at the next begin_round().
  RoundStats finish_round(FinishPolicy policy = FinishPolicy::kStrict);

 private:
  struct LinkState {
    SeqNo next_seq;
    ByteCount up_bytes;
    ByteCount down_bytes;
    std::uint64_t up_frames = 0;
    std::uint64_t down_frames = 0;
    std::vector<Frame> inbox;    // server-bound, awaiting take_pushes()
    std::vector<Frame> mailbox;  // client-bound, awaiting take_pulls()
  };

  // Private plumbing into the std::atomic counters below; the public
  // surface exposes ByteCount accessors (queued_bytes/peak_queued_bytes).
  // lint-apf: allow-strong-type(feeds std::atomic counters directly)
  void note_queued(std::size_t bytes);
  void note_taken(std::size_t bytes);  // lint-apf: allow-strong-type(as above)

  NetworkModel network_;
  // Round lifecycle state; owned by the server coordinator thread (see the
  // header comment), so it needs no lock.
  RoundId round_;
  bool in_round_ = false;
  ShardedClientStore<LinkState> links_;
  // Server-bound frames a kCarryOver finish left untaken, in ascending
  // (client, seq) order; re-injected into their links by the next
  // begin_round(). Their bytes stay in queued_bytes_ the whole time.
  std::vector<Frame> carried_;
  std::atomic<std::size_t> queued_bytes_{0};
  std::atomic<std::size_t> peak_queued_bytes_{0};
  std::atomic<std::size_t> round_peak_queued_bytes_{0};
};

}  // namespace apf::transport
