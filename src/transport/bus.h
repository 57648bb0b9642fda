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
//     clients:  push(id, kind, payload)
//     server:   take_pushes() -> frames sorted by (client, seq)
//     server:   deliver(id, kind, payload)
//     clients:  take_pulls(id) -> that link's frames in send order
//   finish_round() -> RoundStats
//
// finish_round() checks every frame was consumed (an undelivered frame is a
// routing bug, not traffic), prices each link — upload_seconds(sum of up
// bytes) + download_seconds(sum of down bytes) — and resets the per-round
// link state, so bus memory is O(links active this round), not O(client
// universe). The bus is the only code that prices bytes: the same per-link
// price answers link_comm_seconds() on an open link, and RoundStats carries
// the shared server link's time.
//
// Asynchronous rounds relax exactly one clause: finish_round(kCarryOver)
// lets untaken server-bound pushes (stragglers that missed the commit)
// carry into the next round instead of throwing — see FinishPolicy.
//
// All identifiers crossing this interface are strong types (util/ids.h):
// links are ClientId, rounds RoundId, send order SeqNo, and every byte
// figure a ByteCount, so transposed arguments fail to compile.
//
// Single owner: a Bus is not thread-safe. One thread drives it — callers
// that encode on pool lanes push the finished frames serially.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

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
  /// Time for the shared server link to carry total_bytes.
  double server_seconds = 0.0;
  /// Per-link comm seconds (upload + download), in ascending client id
  /// order — what a completion-time round model needs to pair each client's
  /// comm with its own compute.
  std::vector<std::pair<ClientId, double>> link_comm_seconds;
};

class Bus {
 public:
  explicit Bus(NetworkModel network);

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

  /// Comm seconds of `client`'s link for the bytes it has carried so far
  /// this round (0 for an untouched link): the same price finish_round()
  /// reports for the link if nothing else travels on it.
  double link_comm_seconds(ClientId client) const;

  /// High-water mark of the payload bytes queued (pushed or delivered, not
  /// yet taken) since construction (never reset).
  ByteCount peak_queued_bytes() const { return peak_queued_bytes_; }

  /// High-water mark of the queued bytes since the last begin_round() — the
  /// figure per-round windowing bounds (e.g. the million-client bench's
  /// one-encode-window assertion) must use; the lifetime peak above only
  /// ever ratchets up. begin_round() resets it to the bytes still in flight
  /// (carried frames), not to zero.
  ByteCount round_peak_queued_bytes() const { return round_peak_queued_bytes_; }

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

  /// Stamps a new frame on `link` (round, kind, next seq) and queues its
  /// bytes; the caller appends it to the inbox or mailbox.
  Frame open_frame(LinkState& link, ClientId client, Frame::Kind kind,
                   std::vector<std::uint8_t> payload);
  /// Moves every frame of `queue` to `out` in order and un-queues its bytes.
  void drain(std::vector<Frame>& queue, std::vector<Frame>& out);
  /// The one pricing function: upload + download seconds of `link`.
  double price(const LinkState& link) const;
  const LinkState* find(ClientId client) const;

  // The queued-byte gauges below; note_taken() is the one place a byte
  // count goes down.
  void note_queued(ByteCount bytes);
  void note_taken(ByteCount bytes);

  NetworkModel network_;
  RoundId round_;
  bool in_round_ = false;
  // Links touched this round, ascending client id: the deterministic fold
  // and pricing order.
  std::map<ClientId, LinkState> links_;
  // Server-bound frames a kCarryOver finish left untaken, in ascending
  // (client, seq) order; re-injected into their links by the next
  // begin_round(). Their bytes stay in queued_bytes_ the whole time.
  std::vector<Frame> carried_;
  ByteCount queued_bytes_;
  ByteCount peak_queued_bytes_;
  ByteCount round_peak_queued_bytes_;
};

}  // namespace apf::transport
