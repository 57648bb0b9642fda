// Transport layer: NetworkModel validation, streaming aggregation, and the
// frame bus (docs/TRANSPORT.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "transport/buffered.h"
#include "transport/bus.h"
#include "transport/frame.h"
#include "transport/network.h"
#include "transport/streaming.h"
#include "util/error.h"

namespace apf {
namespace {

using transport::BufferedAggregator;
using transport::Bus;
using transport::FinishPolicy;
using transport::Frame;
using transport::NetworkModel;
using transport::RoundStats;
using transport::StreamingAggregator;

// ---------------------------------------------------------------- network --

TEST(TransportNetwork, ValidateAcceptsDefaults) {
  NetworkModel net;
  EXPECT_NO_THROW(net.validate("test"));
}

TEST(TransportNetwork, ValidateRejectsNonPositiveBandwidth) {
  // APF_CHECK throws in every build type, so these hold in release too.
  for (double bad : {0.0, -3.0}) {
    NetworkModel net;
    net.client_upload_mbps = bad;
    EXPECT_THROW(net.validate("test"), Error);
    net = NetworkModel{};
    net.client_download_mbps = bad;
    EXPECT_THROW(net.validate("test"), Error);
    net = NetworkModel{};
    net.server_bandwidth_mbps = bad;
    EXPECT_THROW(net.validate("test"), Error);
  }
}

TEST(TransportNetwork, ValidateRejectsNonFiniteBandwidthAndBadLatency) {
  NetworkModel net;
  net.client_upload_mbps = std::numeric_limits<double>::infinity();
  EXPECT_THROW(net.validate("test"), Error);
  net = NetworkModel{};
  net.server_bandwidth_mbps = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(net.validate("test"), Error);
}

TEST(TransportNetwork, ValidateMessageCarriesContextAndField) {
  NetworkModel net;
  net.client_upload_mbps = -1.0;
  try {
    net.validate("FlConfig::network");
    FAIL() << "expected apf::Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("FlConfig::network"), std::string::npos) << msg;
    EXPECT_NE(msg.find("client_upload_mbps"), std::string::npos) << msg;
  }
}

// ------------------------------------------------------------- aggregator --

TEST(StreamingAggregator, WeightedFoldMatchesHandComputedSum) {
  StreamingAggregator agg(2);
  const std::vector<float> a = {1.f, 2.f};
  const std::vector<float> b = {3.f, 4.f};
  agg.fold(transport::ClientId(0), a, 0.25);
  agg.fold(transport::ClientId(5), b, 0.75);
  std::vector<float> out(2);
  agg.finish_weighted(out);
  EXPECT_FLOAT_EQ(out[0], static_cast<float>(0.25 * 1.0 + 0.75 * 3.0));
  EXPECT_FLOAT_EQ(out[1], static_cast<float>(0.25 * 2.0 + 0.75 * 4.0));
  EXPECT_EQ(agg.folded(), 2u);
}

TEST(StreamingAggregator, MeanFoldMatchesPlainAverage) {
  StreamingAggregator agg(1);
  agg.fold(transport::ClientId(1), std::vector<float>{1.f}, 1.0);
  agg.fold(transport::ClientId(2), std::vector<float>{2.f}, 1.0);
  agg.fold(transport::ClientId(3), std::vector<float>{4.f}, 1.0);
  std::vector<float> out(1);
  agg.finish_mean(out);
  EXPECT_FLOAT_EQ(out[0], static_cast<float>((1.0 + 2.0 + 4.0) / 3.0));
}

TEST(StreamingAggregator, EnforcesStrictlyAscendingClientIds) {
  StreamingAggregator agg(1);
  const std::vector<float> v = {1.f};
  agg.fold(transport::ClientId(3), v, 0.5);
  // duplicate
  EXPECT_THROW(agg.fold(transport::ClientId(3), v, 0.5), Error);
  // descending
  EXPECT_THROW(agg.fold(transport::ClientId(1), v, 0.5), Error);
  agg.fold(transport::ClientId(4), v, 0.5);  // ascending is fine
  agg.reset();
  agg.fold(transport::ClientId(0), v, 1.0);  // reset re-admits any id
  EXPECT_EQ(agg.folded(), 1u);
}

TEST(StreamingAggregator, RejectsDimMismatchAndBadWeight) {
  StreamingAggregator agg(2);
  EXPECT_THROW(agg.fold(transport::ClientId(0), std::vector<float>{1.f}, 1.0),
               Error);
  EXPECT_THROW(
      agg.fold(transport::ClientId(0), std::vector<float>{1.f, 2.f}, -0.1),
      Error);
  std::vector<float> out(2);
  EXPECT_THROW(agg.finish_mean(out), Error);  // nothing folded
}

TEST(StreamingAggregator, BothFinishersRejectAnEmptyFold) {
  // One contract for both finishers: an empty fold has no aggregate.
  // finish_weighted used to return all-zeros silently while finish_mean
  // threw — a zeroed global model on a zero-participant slip-through.
  StreamingAggregator agg(3);
  std::vector<float> out(3, 7.f);
  EXPECT_THROW(agg.finish_weighted(out), Error);
  EXPECT_THROW(agg.finish_mean(out), Error);
  EXPECT_EQ(out, std::vector<float>(3, 7.f));  // rejected without writing
  agg.fold(transport::ClientId(1), std::vector<float>{1.f, 2.f, 3.f}, 0.5);
  EXPECT_NO_THROW(agg.finish_weighted(out));
  EXPECT_NO_THROW(agg.finish_mean(out));
}

TEST(StreamingAggregator, MemoryIsProportionalToDimNotFanIn) {
  StreamingAggregator agg(64);
  const std::size_t before = agg.memory_bytes();
  std::vector<float> v(64, 1.f);
  for (std::uint64_t c = 0; c < 10000; ++c) {
    agg.fold(transport::ClientId(c), v, 1e-4);
  }
  EXPECT_EQ(agg.memory_bytes(), before);  // O(model), not O(clients)
}

// -------------------------------------------------------------------- bus --

std::vector<std::uint8_t> payload_of(std::size_t size, std::uint8_t fill) {
  return std::vector<std::uint8_t>(size, fill);
}

TEST(TransportBus, ConstructorValidatesNetwork) {
  NetworkModel bad;
  bad.server_bandwidth_mbps = 0.0;
  EXPECT_THROW(Bus bus(bad), Error);
}

TEST(TransportBus, RoundTripDeliversFramesInClientSeqOrder) {
  Bus bus(NetworkModel{});
  bus.begin_round(transport::RoundId(1));
  // Push out of client order; the server must still see (client, seq) order.
  bus.push(transport::ClientId(9), Frame::Kind::kStrategy, payload_of(4, 9));
  bus.push(transport::ClientId(2), Frame::Kind::kStrategy, payload_of(3, 2));
  bus.push(transport::ClientId(2), Frame::Kind::kAuxiliary, payload_of(5, 2));
  bus.push(transport::ClientId(4), Frame::Kind::kStrategy, payload_of(2, 4));
  const std::vector<Frame> pushes = bus.take_pushes();
  ASSERT_EQ(pushes.size(), 4u);
  EXPECT_EQ(pushes[0].client, transport::ClientId(2));
  EXPECT_EQ(pushes[0].kind, Frame::Kind::kStrategy);
  EXPECT_EQ(pushes[1].client, transport::ClientId(2));
  EXPECT_EQ(pushes[1].kind, Frame::Kind::kAuxiliary);
  EXPECT_LT(pushes[0].seq, pushes[1].seq);
  EXPECT_EQ(pushes[2].client, transport::ClientId(4));
  EXPECT_EQ(pushes[3].client, transport::ClientId(9));
  for (const Frame& f : pushes) {
    EXPECT_EQ(f.round, transport::RoundId(1));
  }

  bus.deliver(transport::ClientId(2), Frame::Kind::kStrategy, payload_of(7, 0));
  bus.deliver(transport::ClientId(2), Frame::Kind::kAuxiliary, payload_of(1, 0));
  const std::vector<Frame> pulls = bus.take_pulls(transport::ClientId(2));
  ASSERT_EQ(pulls.size(), 2u);
  EXPECT_EQ(pulls[0].kind, Frame::Kind::kStrategy);
  EXPECT_EQ(pulls[1].kind, Frame::Kind::kAuxiliary);
  EXPECT_TRUE(bus.take_pulls(transport::ClientId(9)).empty());

  const RoundStats stats = bus.finish_round();
  EXPECT_EQ(stats.round, transport::RoundId(1));
  EXPECT_EQ(stats.active_links, 3u);
  EXPECT_EQ(stats.frames_up, 4u);
  EXPECT_EQ(stats.frames_down, 2u);
  EXPECT_EQ(stats.total_bytes, transport::ByteCount(4 + 3 + 5 + 2 + 7 + 1));
}

TEST(TransportBus, PricesLinkTotalsWithLegacyArithmetic) {
  NetworkModel net;  // 3 up / 9 down Mbps, 10 Gbps server
  Bus bus(net);
  bus.begin_round(transport::RoundId(1));
  bus.push(transport::ClientId(0), Frame::Kind::kStrategy, payload_of(1000, 0));
  bus.push(transport::ClientId(0), Frame::Kind::kAuxiliary, payload_of(500, 0));
  bus.deliver(transport::ClientId(0), Frame::Kind::kStrategy, payload_of(2000, 0));
  bus.push(transport::ClientId(1), Frame::Kind::kStrategy, payload_of(100, 0));
  (void)bus.take_pushes();
  (void)bus.take_pulls(transport::ClientId(0));
  const RoundStats stats = bus.finish_round();
  // Per-link totals priced once per direction — exactly the pre-bus formula.
  using transport::ByteCount;
  const double link0 = net.client_upload_seconds(ByteCount(1500)) +
                       net.client_download_seconds(ByteCount(2000));
  const double link1 = net.client_upload_seconds(ByteCount(100));
  ASSERT_EQ(stats.link_comm_seconds.size(), 2u);
  EXPECT_EQ(stats.link_comm_seconds[0].second, link0);
  EXPECT_EQ(stats.link_comm_seconds[1].second, link1);
  EXPECT_EQ(stats.server_seconds, net.server_seconds(ByteCount(3600)));
}

TEST(TransportBus, UntakenFrameIsARoutingBug) {
  Bus bus(NetworkModel{});
  bus.begin_round(transport::RoundId(1));
  bus.push(transport::ClientId(0), Frame::Kind::kStrategy, payload_of(4, 0));
  EXPECT_THROW(bus.finish_round(), Error);  // server never took the push

  Bus bus2(NetworkModel{});
  bus2.begin_round(transport::RoundId(1));
  bus2.deliver(transport::ClientId(1), Frame::Kind::kStrategy,
               payload_of(4, 0));
  (void)bus2.take_pushes();
  EXPECT_THROW(bus2.finish_round(), Error);  // client 1 never pulled
}

TEST(TransportBus, RoundLifecycleIsEnforced) {
  Bus bus(NetworkModel{});
  EXPECT_THROW(bus.push(transport::ClientId(0), Frame::Kind::kStrategy, payload_of(1, 0)), Error);
  EXPECT_THROW(bus.begin_round(transport::RoundId(0)), Error);  // rounds are 1-based
  bus.begin_round(transport::RoundId(1));
  EXPECT_THROW(bus.begin_round(transport::RoundId(2)), Error);  // previous round still open
  (void)bus.take_pushes();
  (void)bus.finish_round();
  bus.begin_round(transport::RoundId(2));  // fresh round after finish
  (void)bus.take_pushes();
  const RoundStats stats = bus.finish_round();
  EXPECT_EQ(stats.round, transport::RoundId(2));
  EXPECT_EQ(stats.active_links, 0u);
}

TEST(TransportBus, LinkStateResetsBetweenRounds) {
  const NetworkModel net;
  Bus bus(net);
  bus.begin_round(transport::RoundId(1));
  bus.push(transport::ClientId(5), Frame::Kind::kStrategy, payload_of(10, 0));
  EXPECT_DOUBLE_EQ(bus.link_comm_seconds(transport::ClientId(5)),
                   net.client_upload_seconds(transport::ByteCount(10)));
  (void)bus.take_pushes();
  (void)bus.finish_round();
  // Per-round state, not cumulative.
  EXPECT_EQ(bus.link_comm_seconds(transport::ClientId(5)), 0.0);
  bus.begin_round(transport::RoundId(2));
  bus.deliver(transport::ClientId(5), Frame::Kind::kStrategy, payload_of(6, 0));
  EXPECT_DOUBLE_EQ(bus.link_comm_seconds(transport::ClientId(5)),
                   net.client_download_seconds(transport::ByteCount(6)));
  (void)bus.take_pulls(transport::ClientId(5));
  const RoundStats stats = bus.finish_round();
  EXPECT_EQ(stats.total_bytes, transport::ByteCount(6));
}

TEST(TransportBus, QueuedBytesTracksInFlightWindowAndPeak) {
  Bus bus(NetworkModel{});
  bus.begin_round(transport::RoundId(1));
  EXPECT_EQ(bus.round_peak_queued_bytes(), transport::ByteCount(0));
  bus.push(transport::ClientId(0), Frame::Kind::kStrategy, payload_of(100, 0));
  bus.push(transport::ClientId(1), Frame::Kind::kStrategy, payload_of(50, 0));
  EXPECT_EQ(bus.peak_queued_bytes(), transport::ByteCount(150));
  (void)bus.take_pushes();
  // Taking the pushes empties the window: 20 more bytes stay under the
  // high-water mark, which persists.
  bus.deliver(transport::ClientId(0), Frame::Kind::kStrategy, payload_of(20, 0));
  EXPECT_EQ(bus.peak_queued_bytes(), transport::ByteCount(150));
  (void)bus.take_pulls(transport::ClientId(0));
  (void)bus.finish_round();
  EXPECT_EQ(bus.peak_queued_bytes(), transport::ByteCount(150));
  // Everything was taken, so the next round opens with nothing queued.
  bus.begin_round(transport::RoundId(2));
  EXPECT_EQ(bus.round_peak_queued_bytes(), transport::ByteCount(0));
  (void)bus.finish_round();
}

TEST(TransportBus, ReportsPerLinkCommSecondsInAscendingOrder) {
  NetworkModel net;
  Bus bus(net);
  bus.begin_round(transport::RoundId(1));
  bus.push(transport::ClientId(9), Frame::Kind::kStrategy, payload_of(300, 0));
  bus.push(transport::ClientId(2), Frame::Kind::kStrategy, payload_of(100, 0));
  bus.deliver(transport::ClientId(2), Frame::Kind::kStrategy,
              payload_of(40, 0));
  (void)bus.take_pushes();
  (void)bus.take_pulls(transport::ClientId(2));
  const RoundStats stats = bus.finish_round();
  ASSERT_EQ(stats.link_comm_seconds.size(), 2u);
  EXPECT_EQ(stats.link_comm_seconds[0].first, transport::ClientId(2));
  EXPECT_DOUBLE_EQ(stats.link_comm_seconds[0].second,
                   net.client_upload_seconds(transport::ByteCount(100)) +
                       net.client_download_seconds(transport::ByteCount(40)));
  EXPECT_EQ(stats.link_comm_seconds[1].first, transport::ClientId(9));
  EXPECT_DOUBLE_EQ(stats.link_comm_seconds[1].second,
                   net.client_upload_seconds(transport::ByteCount(300)));
}

TEST(TransportBus, OpenLinkPriceEqualsItsFinishRoundEntry) {
  // One pricing function: the query on an open link and finish_round()'s
  // per-link entry are the same double, bit for bit.
  Bus bus(NetworkModel{});
  bus.begin_round(transport::RoundId(1));
  EXPECT_EQ(bus.link_comm_seconds(transport::ClientId(6)), 0.0);  // untouched
  bus.deliver(transport::ClientId(6), Frame::Kind::kStrategy,
              payload_of(4097, 0));
  (void)bus.take_pulls(transport::ClientId(6));
  bus.push(transport::ClientId(6), Frame::Kind::kStrategy, payload_of(333, 0));
  bus.push(transport::ClientId(1), Frame::Kind::kAuxiliary, payload_of(77, 0));
  const double open6 = bus.link_comm_seconds(transport::ClientId(6));
  const double open1 = bus.link_comm_seconds(transport::ClientId(1));
  EXPECT_GT(open6, open1);
  (void)bus.take_pushes();
  const RoundStats stats = bus.finish_round();
  ASSERT_EQ(stats.link_comm_seconds.size(), 2u);
  EXPECT_EQ(stats.link_comm_seconds[0].first, transport::ClientId(1));
  EXPECT_EQ(stats.link_comm_seconds[0].second, open1);
  EXPECT_EQ(stats.link_comm_seconds[1].first, transport::ClientId(6));
  EXPECT_EQ(stats.link_comm_seconds[1].second, open6);
  // A closed round leaves nothing to price.
  EXPECT_EQ(bus.link_comm_seconds(transport::ClientId(6)), 0.0);
}

// ------------------------------------------------- async: carry-over bus --

TEST(TransportBus, CarryOverKeepsLatePushesForTheNextRound) {
  Bus bus(NetworkModel{});
  bus.begin_round(transport::RoundId(1));
  bus.push(transport::ClientId(3), Frame::Kind::kStrategy, payload_of(8, 1));
  bus.push(transport::ClientId(7), Frame::Kind::kStrategy, payload_of(5, 2));
  // The server only takes client 3's push this round; client 7 straggles.
  const std::vector<Frame> taken = bus.take_pushes(transport::ClientId(3));
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].client, transport::ClientId(3));
  const RoundStats stats = bus.finish_round(FinishPolicy::kCarryOver);
  EXPECT_EQ(stats.carried_frames, 1u);
  // Both pushes were traffic of round 1 — carry-over defers, never re-bills.
  EXPECT_EQ(stats.total_bytes, transport::ByteCount(13));
  EXPECT_EQ(stats.frames_up, 2u);

  bus.begin_round(transport::RoundId(2));
  // The carried frame reappears with its ORIGINAL round id and seq…
  const std::vector<Frame> late = bus.take_pushes(transport::ClientId(7));
  ASSERT_EQ(late.size(), 1u);
  EXPECT_EQ(late[0].round, transport::RoundId(1));
  EXPECT_EQ(late[0].seq, transport::SeqNo(0));
  EXPECT_EQ(late[0].payload, payload_of(5, 2));
  // …and round 2 bills nothing for it.
  const RoundStats stats2 = bus.finish_round(FinishPolicy::kCarryOver);
  EXPECT_EQ(stats2.total_bytes, transport::ByteCount(0));
  EXPECT_EQ(stats2.carried_frames, 0u);
}

TEST(TransportBus, CarriedFrameOrdersAheadOfNewPushesAndBumpsSeq) {
  Bus bus(NetworkModel{});
  bus.begin_round(transport::RoundId(1));
  bus.push(transport::ClientId(4), Frame::Kind::kStrategy, payload_of(3, 9));
  (void)bus.finish_round(FinishPolicy::kCarryOver);
  bus.begin_round(transport::RoundId(2));
  // A new push on the same link must sequence AFTER the carried frame.
  bus.push(transport::ClientId(4), Frame::Kind::kStrategy, payload_of(2, 8));
  const std::vector<Frame> frames = bus.take_pushes(transport::ClientId(4));
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].round, transport::RoundId(1));
  EXPECT_EQ(frames[0].seq, transport::SeqNo(0));
  EXPECT_EQ(frames[1].round, transport::RoundId(2));
  EXPECT_EQ(frames[1].seq, transport::SeqNo(1));
  (void)bus.finish_round(FinishPolicy::kCarryOver);
}

TEST(TransportBus, CarryOverStillRejectsUntakenDeliveries) {
  // Only server-bound pushes may straggle: an untaken client mailbox is a
  // routing bug under either policy.
  Bus bus(NetworkModel{});
  bus.begin_round(transport::RoundId(1));
  bus.deliver(transport::ClientId(0), Frame::Kind::kStrategy,
              payload_of(4, 0));
  EXPECT_THROW(bus.finish_round(FinishPolicy::kCarryOver), Error);
}

TEST(TransportBus, PerRoundPeakResetsWhileLifetimePeakPersists) {
  Bus bus(NetworkModel{});
  bus.begin_round(transport::RoundId(1));
  bus.push(transport::ClientId(0), Frame::Kind::kStrategy,
           payload_of(100, 0));
  bus.push(transport::ClientId(1), Frame::Kind::kStrategy, payload_of(50, 0));
  (void)bus.take_pushes();
  EXPECT_EQ(bus.round_peak_queued_bytes(), transport::ByteCount(150));
  EXPECT_EQ(bus.peak_queued_bytes(), transport::ByteCount(150));
  (void)bus.finish_round();

  bus.begin_round(transport::RoundId(2));
  // Fresh round, nothing in flight: the per-round gauge restarts at zero
  // while the lifetime high-water mark keeps the round-1 peak.
  EXPECT_EQ(bus.round_peak_queued_bytes(), transport::ByteCount(0));
  EXPECT_EQ(bus.peak_queued_bytes(), transport::ByteCount(150));
  bus.push(transport::ClientId(0), Frame::Kind::kStrategy, payload_of(30, 0));
  (void)bus.take_pushes();
  EXPECT_EQ(bus.round_peak_queued_bytes(), transport::ByteCount(30));
  EXPECT_EQ(bus.peak_queued_bytes(), transport::ByteCount(150));
  (void)bus.finish_round();
}

TEST(TransportBus, PerRoundPeakStartsAtCarriedBytes) {
  // A carried frame's bytes are still in flight when the next round opens,
  // so the per-round gauge starts there, not at zero.
  Bus bus(NetworkModel{});
  bus.begin_round(transport::RoundId(1));
  bus.push(transport::ClientId(2), Frame::Kind::kStrategy, payload_of(60, 0));
  (void)bus.finish_round(FinishPolicy::kCarryOver);
  bus.begin_round(transport::RoundId(2));
  EXPECT_EQ(bus.round_peak_queued_bytes(), transport::ByteCount(60));
  (void)bus.take_pushes(transport::ClientId(2));
  (void)bus.finish_round(FinishPolicy::kCarryOver);
  // The carried frame was taken: round 3 opens with nothing in flight.
  bus.begin_round(transport::RoundId(3));
  EXPECT_EQ(bus.round_peak_queued_bytes(), transport::ByteCount(0));
  (void)bus.finish_round(FinishPolicy::kCarryOver);
}

// --------------------------------------------------- buffered aggregator --

TEST(BufferedAggregator, AcceptsOutOfOrderFoldsAndMatchesReference) {
  // Arrival order is the fold order — client ids may arrive in any order,
  // unlike StreamingAggregator. The commit must equal a hand-rolled
  // double-precision weighted average with the same fold sequence.
  BufferedAggregator agg(3, 4);
  agg.begin_round(transport::RoundId(1));
  const std::vector<std::vector<float>> payloads = {
      {1.f, 2.f, 3.f}, {-4.f, 0.5f, 8.f}, {2.f, 2.f, 2.f}};
  const std::vector<std::uint64_t> client_ids = {9, 2, 5};  // out of order
  const std::vector<double> weights = {2.0, 1.0, 3.0};
  std::vector<double> acc(3, 0.0);
  double weight_sum = 0.0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    agg.fold(transport::ClientId(client_ids[i]), transport::RoundId(1),
             payloads[i], weights[i]);
    // Staleness 0: the discount is exactly 1.
    for (std::size_t j = 0; j < 3; ++j) {
      acc[j] += weights[i] * static_cast<double>(payloads[i][j]);
    }
    weight_sum += weights[i];
  }
  EXPECT_EQ(agg.buffered(), 3u);
  EXPECT_FALSE(agg.full());
  std::vector<float> out(3);
  agg.commit(out);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(out[j], static_cast<float>(acc[j] / weight_sum)) << j;
  }
  // Commit resets the buffer for the next window.
  EXPECT_EQ(agg.buffered(), 0u);
  EXPECT_EQ(agg.weight_sum(), 0.0);
}

TEST(BufferedAggregator, DiscountsStaleContributions) {
  BufferedAggregator agg(2, 2);
  agg.begin_round(transport::RoundId(3));
  // A fresh push and one from two windows ago, equal raw weights.
  agg.fold(transport::ClientId(0), transport::RoundId(3),
           std::vector<float>{1.f, 0.f}, 1.0);
  agg.fold(transport::ClientId(1), transport::RoundId(1),
           std::vector<float>{0.f, 1.f}, 1.0);
  ASSERT_EQ(agg.contributions().size(), 2u);
  EXPECT_EQ(agg.contributions()[0].staleness, 0u);
  EXPECT_EQ(agg.contributions()[1].staleness, 2u);
  const double d0 = BufferedAggregator::staleness_discount(0);
  const double d2 = BufferedAggregator::staleness_discount(2);
  EXPECT_DOUBLE_EQ(d0, 1.0);
  EXPECT_DOUBLE_EQ(d2, 1.0 / std::sqrt(3.0));
  EXPECT_DOUBLE_EQ(agg.weight_sum(), d0 + d2);
  std::vector<float> out(2);
  agg.commit(out);
  EXPECT_EQ(out[0], static_cast<float>(d0 / (d0 + d2)));
  EXPECT_EQ(out[1], static_cast<float>(d2 / (d0 + d2)));
}

TEST(BufferedAggregator, RejectsInvalidFoldsAtomically) {
  BufferedAggregator agg(2, 2);
  std::vector<float> ok{1.f, 2.f};
  // Fold before begin_round is rejected.
  EXPECT_THROW(
      agg.fold(transport::ClientId(0), transport::RoundId(1), ok, 1.0),
      Error);
  agg.begin_round(transport::RoundId(2));
  agg.fold(transport::ClientId(0), transport::RoundId(2), ok, 1.0);
  const std::vector<double> acc_before(agg.accumulated().begin(),
                                       agg.accumulated().end());
  const double weight_before = agg.weight_sum();
  // Dim mismatch, bad weight, origin round 0, origin round ahead of the
  // armed round: each rejected without touching the buffer.
  EXPECT_THROW(agg.fold(transport::ClientId(1), transport::RoundId(2),
                        std::vector<float>{1.f}, 1.0),
               Error);
  EXPECT_THROW(agg.fold(transport::ClientId(1), transport::RoundId(2), ok,
                        std::numeric_limits<double>::quiet_NaN()),
               Error);
  EXPECT_THROW(
      agg.fold(transport::ClientId(1), transport::RoundId(2), ok, -1.0),
      Error);
  EXPECT_THROW(
      agg.fold(transport::ClientId(1), transport::RoundId(0), ok, 1.0),
      Error);
  EXPECT_THROW(
      agg.fold(transport::ClientId(1), transport::RoundId(3), ok, 1.0),
      Error);
  EXPECT_EQ(agg.buffered(), 1u);
  EXPECT_EQ(agg.weight_sum(), weight_before);
  EXPECT_TRUE(std::equal(acc_before.begin(), acc_before.end(),
                         agg.accumulated().begin()));
}

TEST(BufferedAggregator, BoundsTheBufferAndRequiresContributionsToCommit) {
  BufferedAggregator agg(1, 2);
  agg.begin_round(transport::RoundId(1));
  std::vector<float> out(1, 5.f);
  EXPECT_THROW(agg.commit(out), Error);  // empty buffer has no aggregate
  EXPECT_EQ(out[0], 5.f);
  std::vector<float> v{1.f};
  agg.fold(transport::ClientId(0), transport::RoundId(1), v, 1.0);
  agg.fold(transport::ClientId(1), transport::RoundId(1), v, 1.0);
  EXPECT_TRUE(agg.full());
  // The buffer is bounded: a fold past capacity throws, atomically.
  EXPECT_THROW(agg.fold(transport::ClientId(2), transport::RoundId(1), v, 1.0),
               Error);
  EXPECT_EQ(agg.buffered(), 2u);
  agg.commit(out);
  EXPECT_EQ(out[0], 1.f);
  // Zero total weight cannot commit (nothing to normalize by).
  agg.begin_round(transport::RoundId(2));
  agg.fold(transport::ClientId(0), transport::RoundId(2), v, 0.0);
  EXPECT_THROW(agg.commit(out), Error);
}

TEST(BufferedAggregator, MemoryIsModelPlusCapacityNotFanIn) {
  BufferedAggregator agg(64, 8);
  agg.begin_round(transport::RoundId(1));
  const std::size_t before = agg.memory_bytes();
  std::vector<float> v(64, 1.f);
  for (std::uint64_t w = 1; w <= 1000; ++w) {
    agg.begin_round(transport::RoundId(w + 1));
    for (std::uint64_t c = 0; c < 8; ++c) {
      agg.fold(transport::ClientId(c * 1000 + w), transport::RoundId(w + 1),
               v, 1.0);
    }
    std::vector<float> out(64);
    agg.commit(out);
  }
  EXPECT_EQ(agg.memory_bytes(), before);  // O(model + K), not O(folds)
}

TEST(BufferedAggregator, RoundsMustAdvance) {
  BufferedAggregator agg(1, 1);
  agg.begin_round(transport::RoundId(2));
  EXPECT_THROW(agg.begin_round(transport::RoundId(2)), Error);
  EXPECT_THROW(agg.begin_round(transport::RoundId(1)), Error);
  EXPECT_NO_THROW(agg.begin_round(transport::RoundId(3)));
}

}  // namespace
}  // namespace apf
