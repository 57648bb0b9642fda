// Micro-benchmarks for the tensor / NN substrate hot paths
// (google-benchmark): matmul kernels, im2col convolution, LSTM step, the
// APF building blocks (EMA perturbation fold, bitmap ops) and the masked
// fp16 sync path (masked pack/unpack, pin_masked, fp16 round trip).
#include <benchmark/benchmark.h>

#include "core/perturbation.h"
#include "fl/flat_view.h"
#include "nn/conv_layers.h"
#include "nn/lstm.h"
#include "nn/models.h"
#include "tensor/ops.h"
#include "util/bitmap.h"
#include "util/rng.h"
#include "wire/masked.h"
#include "wire/wire.h"

namespace {

using namespace apf;

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  Tensor a = Tensor::uniform({n, n}, rng);
  Tensor b = Tensor::uniform({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}

void BM_MatmulTn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  Tensor a = Tensor::uniform({n, n}, rng);
  Tensor b = Tensor::uniform({n, n}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_tn(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}

void BM_MatmulNt(benchmark::State& state) {
  // C(m x r) = A(m x k) * B(r x k)^T: the Linear/LSTM/GRU forward and conv dW.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  const auto r = static_cast<std::size_t>(state.range(2));
  Rng rng(9);
  Tensor a = Tensor::uniform({m, k}, rng);
  Tensor b = Tensor::uniform({r, k}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matmul_nt(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m * k * r));
}

// ResNet-18 stage 1 at the resnet-apfq-train shape: batch 16, 6 -> 6
// channels, 16x16, 3x3 pad 1. Items are multiply-adds of the forward GEMM
// (backward runs two such products: dW and the input gradient).
constexpr std::size_t kConvBatch = 16, kConvChannels = 6, kConvSize = 16;

std::int64_t conv_macs() {
  return static_cast<std::int64_t>(kConvChannels * kConvChannels * 9 *
                                   kConvBatch * kConvSize * kConvSize);
}

Tensor conv_input(Rng& rng) {
  return Tensor::uniform({kConvBatch, kConvChannels, kConvSize, kConvSize},
                         rng);
}

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv(kConvChannels, kConvChannels, 3, rng, 1, 1, false);
  Tensor x = conv_input(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x));
  }
  state.SetItemsProcessed(state.iterations() * conv_macs());
}

void BM_Conv2dEvalForward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv(kConvChannels, kConvChannels, 3, rng, 1, 1, false);
  conv.set_training(false);
  Tensor x = conv_input(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x));
  }
  state.SetItemsProcessed(state.iterations() * conv_macs());
}

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(4);
  nn::Conv2d conv(kConvChannels, kConvChannels, 3, rng, 1, 1, false);
  Tensor x = conv_input(rng);
  Tensor y = conv.forward(x);
  Tensor g = Tensor::uniform(y.shape(), rng);
  for (auto _ : state) {
    conv.zero_grad();
    benchmark::DoNotOptimize(conv.backward(g));
  }
  state.SetItemsProcessed(state.iterations() * 2 * conv_macs());
}

void BM_LstmForward(benchmark::State& state) {
  Rng rng(5);
  nn::LSTM lstm(8, 64, rng);
  Tensor x = Tensor::uniform({16, 16, 8}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.forward(x));
  }
}

void BM_LeNetTrainingStep(benchmark::State& state) {
  Rng rng(6);
  auto net = nn::make_lenet5(rng, 3, 32, 10, 1.0);
  Tensor x = Tensor::uniform({16, 3, 32, 32}, rng);
  Tensor g({16, 10}, 0.1f);
  for (auto _ : state) {
    net->zero_grad();
    Tensor y = net->forward(x);
    benchmark::DoNotOptimize(net->backward(g));
  }
}

void BM_EmaPerturbationFold(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  core::EmaPerturbation p(dim, 0.99);
  std::vector<float> delta(dim);
  for (auto& v : delta) v = rng.uniform_float(-0.1f, 0.1f);
  for (auto _ : state) {
    p.update(delta);
    benchmark::DoNotOptimize(p.value(0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim * 4));
}

void BM_BitmapCount(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  Bitmap mask(dim, false);
  Rng rng(8);
  for (std::size_t i = 0; i < dim / 3; ++i) {
    mask.set(rng.uniform_int(std::uint64_t{dim}), true);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(mask.count());
  }
}

// The resnet-apfq-train sync path: make_resnet18 at base width 6 has 99,616
// scalars, and the workload's freezing mask sits near 39% frozen. Items are
// scalars walked per call.
constexpr std::size_t kResnetDim = 99'616;
constexpr double kResnetFrozen = 0.39;

Bitmap resnet_mask(std::size_t dim) {
  Bitmap mask(dim, false);
  Rng rng(11);
  for (std::size_t j = 0; j < dim; ++j) mask.set(j, rng.bernoulli(kResnetFrozen));
  return mask;
}

std::vector<float> resnet_params(std::size_t dim) {
  std::vector<float> params(dim);
  Rng rng(12);
  for (auto& v : params) v = rng.uniform_float(-1.f, 1.f);
  return params;
}

void set_scalars_processed(benchmark::State& state, std::size_t dim) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim));
}

void BM_MaskedPack(benchmark::State& state) {
  const Bitmap mask = resnet_mask(kResnetDim);
  const std::vector<float> params = resnet_params(kResnetDim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wire::pack_unfrozen(params, mask));
  }
  set_scalars_processed(state, kResnetDim);
}

void BM_MaskedUnpack(benchmark::State& state) {
  const Bitmap mask = resnet_mask(kResnetDim);
  std::vector<float> params = resnet_params(kResnetDim);
  const std::vector<float> payload = wire::pack_unfrozen(params, mask);
  for (auto _ : state) {
    wire::unpack_unfrozen(payload, mask, params);
    benchmark::DoNotOptimize(params.data());
    benchmark::ClobberMemory();
  }
  set_scalars_processed(state, kResnetDim);
}

void BM_PinMasked(benchmark::State& state) {
  Rng rng(13);
  auto net = nn::make_resnet18(rng, 3, 10, /*base_width=*/6);
  fl::FlatParamView view(*net);
  const Bitmap mask = resnet_mask(view.dim());
  const std::vector<float> anchor = resnet_params(view.dim());
  for (auto _ : state) {
    view.pin_masked(mask, anchor);
    benchmark::DoNotOptimize(&view);
    benchmark::ClobberMemory();
  }
  set_scalars_processed(state, view.dim());
}

// One participant's QuantizedSync push: pack, fp16 encode, decode, unpack.
void BM_Fp16PayloadRoundTrip(benchmark::State& state) {
  const Bitmap mask = resnet_mask(kResnetDim);
  std::vector<float> params = resnet_params(kResnetDim);
  for (auto _ : state) {
    const auto frame =
        wire::encode_fp16_payload(wire::pack_unfrozen(params, mask));
    wire::unpack_unfrozen(wire::decode_fp16_payload(frame), mask, params);
    benchmark::DoNotOptimize(frame.data());
  }
  set_scalars_processed(state, kResnetDim);
}

}  // namespace

BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);
BENCHMARK(BM_MatmulTn)->Arg(128);
// 128^3, a KWS-sized recurrent step and the ResNet stem's dW.
BENCHMARK(BM_MatmulNt)
    ->Args({128, 128, 128})
    ->Args({16, 32, 128})
    ->Args({6, 256, 27});
BENCHMARK(BM_Conv2dForward)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv2dEvalForward)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Conv2dBackward)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LstmForward)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LeNetTrainingStep)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EmaPerturbationFold)->Arg(62006)->Arg(1 << 20);
BENCHMARK(BM_BitmapCount)->Arg(62006)->Arg(1 << 20);
BENCHMARK(BM_MaskedPack);
BENCHMARK(BM_MaskedUnpack);
BENCHMARK(BM_PinMasked);
BENCHMARK(BM_Fp16PayloadRoundTrip);

BENCHMARK_MAIN();
