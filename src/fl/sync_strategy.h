// Synchronization strategy interface.
//
// A SyncStrategy decides, at each communication round, what each client
// transmits, how the server aggregates it, and what each client's model is
// afterwards. Vanilla FedAvg (FullSync) ships the full parameter vector both
// ways; APF, the strawmen and the sparsification baselines ship less. A
// strategy's unit is its push/pull encoding: the round's byte counts are the
// sizes of the frames it encodes, never a model of them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "transport/streaming.h"
#include "util/bitmap.h"
#include "util/ids.h"

namespace apf::fl {

// Strong id/byte types (util/ids.h): every client id, round id, sequence
// number and byte count crossing the strategy interface is typed, so
// transposed arguments are compile errors (the apf_lint `strong-type`
// rule keeps bare integers from creeping back in).
using util::ByteCount;
using util::ClientId;
using util::RoundId;
using util::SeqNo;

/// Optional frame-streaming capability (see docs/TRANSPORT.md).
///
/// A strategy that implements StreamSync exposes its round as five transport
/// hooks so a driver can run it over a message bus without ever staging
/// per-client vectors on the server: encode each client's push frame, fold
/// arriving frames one at a time (strictly ascending client id — that order
/// IS the determinism guarantee), finish into the broadcast pull frame, and
/// rebuild a client from it. Every SyncStrategyBase strategy implements it,
/// and SyncStrategyBase::synchronize() is the batch driver over these
/// hooks, so both paths are bit-identical by construction.
class StreamSync {
 public:
  virtual ~StreamSync() = default;

  /// Client side: the push frame for `client` given its post-training
  /// parameters. FullSync, APF and the strawmen encode against whatever the
  /// last finish_fold() left behind, so they accept a call any time between
  /// rounds; the error-feedback sparsifiers (TopK, RandK, Gaia) move a
  /// client residual per push and require the round armed by begin_fold().
  virtual std::vector<std::uint8_t> encode_push(
      ClientId client, std::span<const float> params) = 0;

  /// Server side: arms the fold for `round` (1-based).
  virtual void begin_fold(RoundId round) = 0;

  /// Server side: folds one arriving push frame. `normalized_weight` is the
  /// client's aggregation weight divided by the round's weight total.
  /// Clients must fold in strictly ascending id order.
  virtual void fold_push(ClientId client,
                         std::span<const std::uint8_t> frame,
                         double normalized_weight) = 0;

  /// Server side: commits the fold into the global model, advances any
  /// per-round strategy state, and returns the broadcast pull frame.
  virtual std::vector<std::uint8_t> finish_fold() = 0;

  /// Client side: rebuilds `params` from the pull frame returned by the
  /// round's finish_fold().
  virtual void apply_pull(std::span<const std::uint8_t> frame,
                          std::vector<float>& params) const = 0;
};

class SyncStrategy {
 public:
  virtual ~SyncStrategy() = default;

  /// Per-round synchronization accounting. Byte figures are measured
  /// ByteCounts: the sizes of the round's real wire frames.
  struct Result {
    std::vector<ByteCount> bytes_up;    // per client: frames_up[i].size()
    std::vector<ByteCount> bytes_down;  // per client: frames_down[i].size()
    double frozen_fraction = 0.0;       // of scalars excluded from sync

    // The round's traffic: exactly one push frame and one pull frame per
    // client, where an empty frame means nothing was sent. The runner
    // routes these over the transport bus and rejects a Result whose frames
    // are missing or disagree with the byte counts.
    std::vector<std::vector<std::uint8_t>> frames_up;
    std::vector<std::vector<std::uint8_t>> frames_down;
  };

  /// Called once before the first round with the initial global model.
  virtual void init(std::span<const float> initial_params,
                    std::size_t num_clients) = 0;

  /// Executes one synchronization. `client_params[i]` holds client i's
  /// flattened parameters after local training and, on return, its post-sync
  /// parameters. `weights[i]` is the aggregation weight (0 drops a client).
  /// `round` is 1-based.
  virtual Result synchronize(RoundId round,
                             std::vector<std::vector<float>>& client_params,
                             const std::vector<double>& weights) = 0;

  /// Server-side view of the model (used for evaluation).
  virtual std::span<const float> global_params() const = 0;

  /// Mask of parameters currently frozen on clients, or nullptr if the
  /// strategy does not freeze. The runner pins these scalars to
  /// frozen_anchor() after every local step (paper Alg. 1, line 2).
  virtual const Bitmap* frozen_mask() const { return nullptr; }

  /// Values frozen parameters are pinned to (valid when frozen_mask() is
  /// non-null; same layout as the flat parameter vector).
  virtual std::span<const float> frozen_anchor() const { return {}; }

  /// The strategy's streaming capability, or nullptr when it only supports
  /// the batch synchronize() path.
  virtual StreamSync* stream_sync() { return nullptr; }

  virtual std::string name() const = 0;
};

/// Validates one round's inputs against the model `global` BEFORE any state
/// is mutated, so a rejection is atomic: client/weight counts match (and
/// equal `num_clients`), every client vector has the model dimension
/// (participant or not — a zero-weight client with a short vector must not
/// be written out of bounds later), every weight is finite and non-negative
/// with a positive total, and every participating (weight > 0) payload is
/// finite. Throws apf::Error.
void require_round_inputs(std::span<const float> global,
                          std::size_t num_clients,
                          const std::vector<std::vector<float>>& client_params,
                          const std::vector<double>& weights);

/// Shared plumbing: stores the global model and client count, and runs the
/// one batch round over the StreamSync hooks a subclass implements.
class SyncStrategyBase : public SyncStrategy, public StreamSync {
 public:
  void init(std::span<const float> initial_params,
            std::size_t num_clients) override;

  /// The batch round, in this order: validate the inputs
  /// (require_round_inputs; nothing moves on a rejection), begin_fold,
  /// encode_push on util::compute_pool() lanes, fold_push serially in
  /// ascending client id (the fixed summation order), finish_fold, and
  /// apply_pull on lanes. encode_push for distinct clients and apply_pull
  /// must therefore be safe to run concurrently. Result's byte counts are
  /// the sizes of the frames this driver moved.
  Result synchronize(RoundId round,
                     std::vector<std::vector<float>>& client_params,
                     const std::vector<double>& weights) final;

  std::span<const float> global_params() const override { return global_; }
  StreamSync* stream_sync() final { return this; }

 protected:
  /// Whether a weight-0 client still takes part in the wire round: it
  /// pushes (without being folded) and is billed the pull (FullSync, APF,
  /// the strawmen), or it sits the round out, pushing nothing and billed
  /// no pull (the error-feedback sparsifiers, whose residuals must not
  /// move). Either way every client applies the pull.
  virtual bool zero_weight_clients_exchange() const { return true; }

  /// The frozen fraction the round reports, read after finish_fold().
  virtual double round_frozen_fraction() const { return 0.0; }

  std::vector<float> global_;
  std::size_t num_clients_ = 0;
};

/// Vanilla FedAvg: full model both directions every round.
class FullSync : public SyncStrategyBase {
 public:
  std::vector<std::uint8_t> encode_push(
      ClientId client, std::span<const float> params) override;
  void begin_fold(RoundId round) override;
  void fold_push(ClientId client, std::span<const std::uint8_t> frame,
                 double normalized_weight) override;
  std::vector<std::uint8_t> finish_fold() override;
  void apply_pull(std::span<const std::uint8_t> frame,
                  std::vector<float>& params) const override;

  std::string name() const override { return "FedAvg"; }

 private:
  std::optional<transport::StreamingAggregator> agg_;
};

}  // namespace apf::fl
