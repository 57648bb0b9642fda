#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "grad_check.h"
#include "nn/batchnorm.h"
#include "nn/conv_layers.h"
#include "nn/dropout.h"
#include "nn/gru.h"
#include "nn/lane_store.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/models.h"
#include "nn/module.h"
#include "nn/resnet.h"
#include "conv_reference.h"
#include "recurrent_reference.h"
#include "tensor/activations.h"
#include "tensor/conv.h"
#include "tensor/ops.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace apf {
namespace {

using nn::BatchNorm2d;
using nn::BasicBlock;
using nn::Conv2d;
using nn::Flatten;
using nn::GlobalAvgPool;
using nn::GRU;
using nn::LastTimeStep;
using nn::Linear;
using nn::LSTM;
using nn::MaxPool2d;
using nn::ReLU;
using nn::Sequential;
using test::col2im;
using test::im2col;

TEST(Linear, ForwardHandComputed) {
  Rng rng(1);
  Linear fc(2, 2, rng);
  fc.weight().value = Tensor({2, 2}, std::vector<float>{1, 2, 3, 4});
  fc.bias()->value = Tensor({2}, std::vector<float>{0.5f, -0.5f});
  Tensor x({1, 2}, std::vector<float>{1, 1});
  Tensor y = fc.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.5f);   // 1*1 + 2*1 + 0.5
  EXPECT_FLOAT_EQ(y.at(0, 1), 6.5f);   // 3*1 + 4*1 - 0.5
}

TEST(Linear, GradCheck) {
  Rng rng(2);
  Linear fc(5, 4, rng);
  Tensor x = Tensor::uniform({3, 5}, rng);
  test::check_gradients(fc, x, rng);
}

TEST(Linear, NoBiasHasOneParameter) {
  Rng rng(3);
  Linear fc(4, 3, rng, /*bias=*/false);
  EXPECT_EQ(fc.parameters().size(), 1u);
  EXPECT_EQ(fc.parameter_count(), 12u);
}

TEST(Linear, RejectsWrongInputWidth) {
  Rng rng(4);
  Linear fc(5, 4, rng);
  Tensor x({2, 3});
  EXPECT_THROW(fc.forward(x), Error);
}

TEST(Activations, ReLUForwardBackward) {
  ReLU relu;
  Tensor x({4}, std::vector<float>{-1, 0, 2, -3});
  Tensor y = relu.forward(x);
  EXPECT_EQ(y[0], 0.f);
  EXPECT_EQ(y[2], 2.f);
  Tensor g = relu.backward(Tensor({4}, 1.f));
  EXPECT_EQ(g[0], 0.f);
  EXPECT_EQ(g[2], 1.f);
}

TEST(Activations, SigmoidRange) {
  Rng rng(7);
  Tensor y = Tensor::uniform({100}, rng, -10.f, 10.f);
  apf::sigmoid(y.data(), y.data());
  EXPECT_GT(y.min(), 0.f);
  EXPECT_LT(y.max(), 1.f);
}

TEST(Flatten, RoundTrip) {
  Flatten flatten;
  Tensor x({2, 3, 4, 5});
  Tensor y = flatten.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  Tensor g = flatten.backward(Tensor({2, 60}, 1.f));
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(Conv2d, ForwardShape) {
  Rng rng(8);
  Conv2d conv(3, 6, 5, rng);
  Tensor x = Tensor::uniform({2, 3, 32, 32}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{2, 6, 28, 28}));
}

TEST(Conv2d, StrideAndPaddingShape) {
  Rng rng(9);
  Conv2d conv(2, 4, 3, rng, /*stride=*/2, /*pad=*/1);
  Tensor y = conv.forward(Tensor::uniform({1, 2, 8, 8}, rng));
  EXPECT_EQ(y.shape(), (Shape{1, 4, 4, 4}));
}

TEST(Conv2d, IdentityKernelPreservesInput) {
  Rng rng(10);
  Conv2d conv(1, 1, 1, rng, 1, 0, /*bias=*/false);
  conv.parameters()[0].param->value.fill(1.f);
  Tensor x = Tensor::uniform({1, 1, 4, 4}, rng);
  Tensor y = conv.forward(x);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, GradCheck) {
  Rng rng(11);
  Conv2d conv(2, 3, 3, rng, 1, 1);
  test::check_gradients(conv, Tensor::uniform({2, 2, 6, 6}, rng), rng);
}

TEST(Conv2d, GradCheckStride2NoBias) {
  Rng rng(12);
  Conv2d conv(2, 2, 3, rng, 2, 1, /*bias=*/false);
  test::check_gradients(conv, Tensor::uniform({2, 2, 8, 8}, rng), rng);
}

// The per-sample lowering whose bits Conv2d's implicit GEMMs reproduce:
// im2col, matmul and matmul_tn per sample, col2im for the input gradient,
// matmul_nt for each sample's dW and bias sums in double, folded into the
// gradients in sample order.
struct ConvPass {
  Tensor y, grad_input, grad_weight, grad_bias;
};

ConvPass per_sample_conv_reference(const Tensor& x, const Tensor& weight,
                                   const Tensor* bias, const Tensor& gy,
                                   const ConvGeom& g) {
  const std::size_t n = x.dim(0), out_c = weight.dim(0);
  const std::size_t plane = g.out_h() * g.out_w();
  const std::size_t image = g.channels * g.in_h * g.in_w;
  ConvPass ref{Tensor({n, out_c, g.out_h(), g.out_w()}), Tensor(x.shape()),
               Tensor(weight.shape()), Tensor({out_c})};
  for (std::size_t s = 0; s < n; ++s) {
    const Tensor cols = im2col(x.raw() + s * image, g);
    Tensor ys = matmul(weight, cols);
    for (std::size_t c = 0; c < out_c; ++c) {
      for (std::size_t i = 0; i < plane; ++i) {
        if (bias != nullptr) ys[c * plane + i] += (*bias)[c];
        ref.y[(s * out_c + c) * plane + i] = ys[c * plane + i];
      }
    }
    const Tensor gys({out_c, plane},
                     std::vector<float>(gy.raw() + s * out_c * plane,
                                        gy.raw() + (s + 1) * out_c * plane));
    ref.grad_weight += matmul_nt(gys, cols);
    for (std::size_t c = 0; c < out_c; ++c) {
      double acc = 0.0;
      for (std::size_t i = 0; i < plane; ++i) acc += gys[c * plane + i];
      ref.grad_bias[c] += static_cast<float>(acc);
    }
    col2im(matmul_tn(weight, gys), g, ref.grad_input.raw() + s * image);
  }
  return ref;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) == 0;
}

struct ConvCase {
  std::size_t in_c, out_c, kernel, stride, pad, h, w, n;
  bool bias;
};

std::string conv_case_name(const ConvCase& c) {
  return std::to_string(c.in_c) + "->" + std::to_string(c.out_c) +
         " k=" + std::to_string(c.kernel) + " s=" + std::to_string(c.stride) +
         " p=" + std::to_string(c.pad) + " " + std::to_string(c.h) + "x" +
         std::to_string(c.w) + " n=" + std::to_string(c.n) +
         " bias=" + std::to_string(c.bias);
}

// Conv2d's forward, input gradient, weight gradient and bias gradient
// against the per-sample lowering, bit for bit.
void expect_conv_matches_reference(const ConvCase& c, Rng& rng) {
  Conv2d conv(c.in_c, c.out_c, c.kernel, rng, c.stride, c.pad, c.bias);
  const ConvGeom g{c.in_c, c.h, c.w, c.kernel, c.stride, c.pad};
  const Tensor x = Tensor::uniform({c.n, c.in_c, c.h, c.w}, rng);
  const Tensor gy =
      Tensor::uniform({c.n, c.out_c, g.out_h(), g.out_w()}, rng, -0.5f, 0.5f);
  const auto params = conv.parameters();
  const ConvPass ref = per_sample_conv_reference(
      x, params[0].param->value, c.bias ? &params[1].param->value : nullptr,
      gy, g);
  const std::string where = conv_case_name(c);
  EXPECT_TRUE(bitwise_equal(conv.forward(x), ref.y)) << where;
  EXPECT_TRUE(bitwise_equal(conv.backward(gy), ref.grad_input)) << where;
  EXPECT_TRUE(bitwise_equal(params[0].param->grad, ref.grad_weight)) << where;
  if (c.bias) {
    EXPECT_TRUE(bitwise_equal(params[1].param->grad, ref.grad_bias)) << where;
  }
}

TEST(Conv2d, BatchedMatchesPerSampleReferenceBitwise) {
  std::vector<ConvCase> cases;
  for (const std::size_t kernel : {1u, 3u}) {
    for (const std::size_t stride : {1u, 2u}) {
      for (const std::size_t pad : {0u, 1u}) {
        for (const bool bias : {false, true}) {
          for (const std::size_t n : {1u, 5u})
            cases.push_back({3, 5, kernel, stride, pad, 7, 6, n, bias});
        }
      }
    }
  }
  const std::vector<ConvCase> shapes = {
      // Kernels 5 and 7, with pad 2 and 3.
      {2, 5, 5, 1, 2, 9, 8, 3, true},
      {2, 4, 7, 1, 3, 9, 10, 2, false},
      {3, 5, 7, 2, 3, 11, 8, 2, true},
      // Stride 2 on odd input sizes.
      {3, 6, 3, 2, 1, 9, 7, 4, false},
      {4, 6, 3, 2, 0, 7, 9, 3, true},
      {3, 6, 5, 2, 2, 11, 9, 3, true},
      // 6, 12 and 13 output channels: a partial panel and a partial row
      // tile; 70 needs two chunks of widened rows in the dW fold.
      {5, 6, 3, 1, 1, 6, 6, 3, false},
      {5, 12, 3, 1, 1, 6, 6, 3, false},
      {5, 13, 3, 1, 1, 5, 7, 2, true},
      {3, 70, 3, 1, 1, 3, 3, 2, true},
      // 2x2 and 1x1 outputs: one 8-column panel spans two or more samples.
      {6, 8, 3, 1, 1, 2, 2, 5, false},
      {4, 13, 3, 1, 1, 1, 1, 11, true},
      {5, 6, 3, 2, 1, 2, 2, 9, false},
      {48, 48, 3, 1, 1, 2, 2, 16, false},
      // Batch 16, the ResNet stage-1 shape and its downsampling 1x1.
      {3, 6, 3, 1, 1, 8, 8, 16, false},
      {6, 6, 3, 1, 1, 16, 16, 16, false},
      {6, 12, 1, 2, 0, 16, 16, 16, false},
      // Large enough for the pool: the input gradient splits samples over
      // lanes, and panels straddle samples (9 and 100 output positions).
      {16, 16, 3, 1, 1, 3, 3, 16, false},
      {4, 30, 3, 1, 1, 10, 10, 6, true},
  };
  cases.insert(cases.end(), shapes.begin(), shapes.end());
  for (const std::size_t lanes : {1u, 4u}) {
    util::ThreadPool pool(lanes);
    const util::ScopedComputePool scope(pool);
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    Rng rng(13);
    for (const ConvCase& c : cases) expect_conv_matches_reference(c, rng);
  }
}

TEST(Conv2d, EvalForwardMatchesTrainingForwardBitwise) {
  Rng rng(14);
  Conv2d conv(3, 6, 3, rng, 2, 1);
  const Tensor x = Tensor::uniform({4, 3, 9, 9}, rng, -2.f, 2.f);
  const Tensor trained = conv.forward(x);
  conv.set_training(false);
  EXPECT_TRUE(bitwise_equal(conv.forward(x), trained));
}

// An eval-mode forward keeps no input copy and drops the one an earlier
// training-mode forward left, so backward must refuse rather than pair the
// new gradient with a stale input.
TEST(Conv2d, BackwardAfterEvalForwardThrows) {
  Rng rng(15);
  Conv2d conv(2, 4, 3, rng, 1, 1);
  const Tensor x = Tensor::uniform({3, 2, 5, 5}, rng);
  const Tensor g = Tensor::uniform({3, 4, 5, 5}, rng);
  conv.set_training(false);
  conv.forward(x);
  EXPECT_THROW(conv.backward(g), Error);
  conv.set_training(true);
  conv.forward(x);
  conv.set_training(false);
  conv.forward(x);
  EXPECT_THROW(conv.backward(g), Error);
  for (const auto& ref : conv.parameters()) {
    EXPECT_EQ(ref.param->grad.norm(), 0.f) << ref.name;
  }
  conv.set_training(true);
  conv.forward(x);
  EXPECT_EQ(conv.backward(g).shape(), x.shape());
}

TEST(MaxPool2d, ForwardSelectsMax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_EQ(y[0], 5.f);
}

TEST(MaxPool2d, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, std::vector<float>{1, 5, 3, 2});
  pool.forward(x);
  Tensor g = pool.backward(Tensor({1, 1, 1, 1}, 2.f));
  EXPECT_EQ(g[0], 0.f);
  EXPECT_EQ(g[1], 2.f);
}

TEST(MaxPool2d, GradCheck) {
  Rng rng(13);
  MaxPool2d pool(2);
  test::check_gradients(pool, Tensor::uniform({2, 3, 4, 4}, rng), rng);
}

TEST(GlobalAvgPool, ForwardShapeAndValue) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2}, std::vector<float>{1, 2, 3, 4, 10, 10, 10, 10});
  Tensor y = gap.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 10.f);
}

TEST(GlobalAvgPool, GradCheck) {
  Rng rng(15);
  GlobalAvgPool gap;
  test::check_gradients(gap, Tensor::uniform({2, 3, 4, 4}, rng), rng);
}

TEST(GlobalAvgPool, BackwardWithoutForwardThrows) {
  GlobalAvgPool gap;
  EXPECT_THROW(gap.backward(Tensor({1, 2}, 1.f)), Error);
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  Rng rng(16);
  BatchNorm2d bn(3);
  bn.set_training(true);
  Tensor x = Tensor::uniform({4, 3, 5, 5}, rng, -2.f, 5.f);
  Tensor y = bn.forward(x);
  // Per-channel mean ~ 0, var ~ 1 (gamma=1, beta=0 initially).
  for (std::size_t c = 0; c < 3; ++c) {
    double sum = 0.0, sq = 0.0;
    std::size_t count = 0;
    for (std::size_t n = 0; n < 4; ++n) {
      for (std::size_t i = 0; i < 25; ++i) {
        const float v = y[(n * 3 + c) * 25 + i];
        sum += v;
        sq += static_cast<double>(v) * v;
        ++count;
      }
    }
    const double mean = sum / count;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / count - mean * mean, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  Rng rng(17);
  BatchNorm2d bn(2);
  bn.set_training(true);
  for (int i = 0; i < 50; ++i) {
    bn.forward(Tensor::normal({8, 2, 3, 3}, rng, 2.f, 3.f));
  }
  bn.set_training(false);
  // A constant input equal to the running mean should map to ~beta = 0.
  Tensor x({1, 2, 3, 3}, 2.f);
  Tensor y = bn.forward(x);
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], 0.f, 0.15f);
}

TEST(BatchNorm2d, GradCheck) {
  Rng rng(18);
  BatchNorm2d bn(2);
  test::check_gradients(bn, Tensor::uniform({3, 2, 3, 3}, rng), rng,
                        {.eps = 1e-2, .rel_tol = 5e-2, .abs_tol = 5e-3});
}

// An eval-mode forward drops the training caches: a backward after it
// (here at the eval batch size, 8, against caches of batch 2) must throw
// before it touches the parameter gradients.
TEST(BatchNorm2d, BackwardAfterEvalForwardThrows) {
  Rng rng(19);
  BatchNorm2d bn(2);
  EXPECT_THROW(bn.backward(Tensor({2, 2, 3, 3}, 1.f)), Error);
  const Tensor x2 = Tensor::uniform({2, 2, 3, 3}, rng);
  const Tensor g2 = Tensor::uniform({2, 2, 3, 3}, rng);
  const Tensor g8 = Tensor::uniform({8, 2, 3, 3}, rng);
  bn.forward(x2);
  bn.backward(g2);
  std::vector<Tensor> grads;
  for (const auto& ref : bn.parameters()) grads.push_back(ref.param->grad);
  bn.set_training(false);
  bn.forward(Tensor::uniform({8, 2, 3, 3}, rng));
  bn.set_training(true);
  EXPECT_THROW(bn.backward(g8), Error);
  EXPECT_THROW(bn.backward(g2), Error);
  const auto params = bn.parameters();
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(std::memcmp(params[i].param->grad.raw(), grads[i].raw(),
                          grads[i].numel() * sizeof(float)),
              0)
        << params[i].name;
  }
  bn.forward(x2);
  EXPECT_EQ(bn.backward(g2).shape(), x2.shape());
}

TEST(BatchNorm2d, HasBuffers) {
  BatchNorm2d bn(4);
  const auto buffers = bn.buffers();
  ASSERT_EQ(buffers.size(), 2u);
  EXPECT_EQ(buffers[0].buffer->numel(), 4u);
}

TEST(LSTM, ForwardShape) {
  Rng rng(19);
  LSTM lstm(5, 7, rng);
  Tensor x = Tensor::uniform({3, 4, 5}, rng);
  Tensor y = lstm.forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 4, 7}));
}

TEST(LSTM, OutputBounded) {
  // h = o * tanh(c) with o in (0,1) and tanh in (-1,1).
  Rng rng(20);
  LSTM lstm(3, 5, rng);
  Tensor y = lstm.forward(Tensor::uniform({2, 10, 3}, rng, -5.f, 5.f));
  EXPECT_GT(y.min(), -1.f);
  EXPECT_LT(y.max(), 1.f);
}

TEST(LSTM, GradCheck) {
  Rng rng(21);
  LSTM lstm(3, 4, rng);
  test::check_gradients(lstm, Tensor::uniform({2, 3, 3}, rng), rng,
                        {.eps = 1e-2, .rel_tol = 5e-2, .abs_tol = 5e-3});
}

// Eval mode skips the BPTT caches; the gate arithmetic must not change.
template <typename Recurrent>
void expect_eval_forward_matches_training() {
  Rng rng(22);
  Recurrent layer(4, 6, rng);
  const Tensor x = Tensor::uniform({3, 5, 4}, rng, -2.f, 2.f);
  const Tensor trained = layer.forward(x);
  layer.set_training(false);
  const Tensor evaluated = layer.forward(x);
  ASSERT_EQ(trained.shape(), evaluated.shape());
  EXPECT_EQ(std::memcmp(trained.raw(), evaluated.raw(),
                        trained.numel() * sizeof(float)),
            0);
}

// A backward after an eval-mode forward must refuse rather than run BPTT
// over the caches of the earlier training-mode forward.
template <typename Recurrent>
void expect_backward_after_eval_forward_throws() {
  Rng rng(23);
  Recurrent layer(4, 6, rng);
  const Tensor x = Tensor::uniform({3, 5, 4}, rng);
  const Tensor g = Tensor::uniform({3, 5, 6}, rng);
  layer.forward(x);
  layer.set_training(false);
  layer.forward(Tensor::uniform({3, 5, 4}, rng));
  EXPECT_THROW(layer.backward(g), Error);
  for (const auto& ref : layer.parameters()) {
    EXPECT_EQ(ref.param->grad.norm(), 0.f) << ref.name;
  }
  layer.set_training(true);
  layer.forward(x);
  EXPECT_EQ(layer.backward(g).shape(), x.shape());
}

// Forward and backward twice, the second pass folding onto the first's
// parameter gradients, against the per-step reference: output, input
// gradient and every parameter gradient bit for bit. The shapes cover one
// sample and one step, in != H, and H of 5 (a partial panel), 8 and 32;
// the last is large enough for the GEMMs to split over pool lanes.
template <typename Recurrent, typename Reference>
void expect_recurrent_matches_reference(const Reference& reference) {
  struct Case {
    std::size_t n, t, in, h;
  };
  const Case cases[] = {{1, 1, 3, 5},   {1, 4, 7, 8},    {3, 1, 5, 8},
                        {4, 6, 9, 5},   {2, 3, 8, 32},   {5, 7, 32, 8},
                        {16, 16, 8, 32}, {64, 3, 40, 32}};
  for (const std::size_t lanes : {1u, 4u}) {
    util::ThreadPool pool(lanes);
    const util::ScopedComputePool scope(pool);
    Rng rng(31);
    for (const Case& c : cases) {
      Recurrent layer(c.in, c.h, rng);
      for (int pass = 0; pass < 2; ++pass) {
        const std::string where =
            "lanes=" + std::to_string(lanes) + " n=" + std::to_string(c.n) +
            " t=" + std::to_string(c.t) + " in=" + std::to_string(c.in) +
            " h=" + std::to_string(c.h) + " pass=" + std::to_string(pass);
        const Tensor x = Tensor::uniform({c.n, c.t, c.in}, rng, -2.f, 2.f);
        const Tensor gy = Tensor::uniform({c.n, c.t, c.h}, rng);
        std::vector<Tensor> values, grads;
        for (const auto& ref : layer.parameters()) {
          values.push_back(ref.param->value);
          grads.push_back(ref.param->grad);
        }
        const test::RecurrentPass expect =
            reference(values, x, gy, std::move(grads));
        EXPECT_TRUE(bitwise_equal(layer.forward(x), expect.out)) << where;
        EXPECT_TRUE(bitwise_equal(layer.backward(gy), expect.grad_input))
            << where;
        const auto params = layer.parameters();
        for (std::size_t i = 0; i < params.size(); ++i) {
          EXPECT_TRUE(bitwise_equal(params[i].param->grad, expect.grads[i]))
              << where << " " << params[i].name;
        }
      }
    }
  }
}

TEST(LSTM, MatchesPerStepReferenceBitwise) {
  expect_recurrent_matches_reference<LSTM>(
      [](const std::vector<Tensor>& p, const Tensor& x, const Tensor& gy,
         std::vector<Tensor> grads) {
        return test::lstm_reference(p[0], p[1], p[2], x, gy,
                                    std::move(grads));
      });
}

TEST(GRU, MatchesPerStepReferenceBitwise) {
  expect_recurrent_matches_reference<GRU>(
      [](const std::vector<Tensor>& p, const Tensor& x, const Tensor& gy,
         std::vector<Tensor> grads) {
        return test::gru_reference(p[0], p[1], p[2], p[3], x, gy,
                                   std::move(grads));
      });
}

TEST(LSTM, EvalForwardMatchesTrainingForwardBitwise) {
  expect_eval_forward_matches_training<LSTM>();
}

TEST(LSTM, BackwardAfterEvalForwardThrows) {
  expect_backward_after_eval_forward_throws<LSTM>();
}

TEST(GRU, EvalForwardMatchesTrainingForwardBitwise) {
  expect_eval_forward_matches_training<GRU>();
}

TEST(GRU, BackwardAfterEvalForwardThrows) {
  expect_backward_after_eval_forward_throws<GRU>();
}

TEST(LastTimeStep, SlicesAndPads) {
  LastTimeStep last;
  Tensor x({1, 3, 2}, std::vector<float>{1, 2, 3, 4, 5, 6});
  Tensor y = last.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_EQ(y[0], 5.f);
  EXPECT_EQ(y[1], 6.f);
  Tensor g = last.backward(Tensor({1, 2}, 1.f));
  EXPECT_EQ(g.shape(), x.shape());
  EXPECT_EQ(g[0], 0.f);
  EXPECT_EQ(g[4], 1.f);
}

TEST(LastTimeStep, RejectsZeroStepsAndKeepsItsShape) {
  LastTimeStep last;
  EXPECT_THROW(last.backward(Tensor({1, 2})), Error);  // no forward yet
  last.forward(Tensor({1, 3, 2}));
  EXPECT_THROW(last.forward(Tensor({1, 0, 2})), Error);
  // The rejected forward left the (1, 3, 2) input shape in place.
  Tensor g = last.backward(Tensor({1, 2}, 1.f));
  EXPECT_EQ(g.shape(), (Shape{1, 3, 2}));
  EXPECT_EQ(g[4], 1.f);
  EXPECT_EQ(g[5], 1.f);
}

TEST(BasicBlock, IdentityShapePreserved) {
  Rng rng(22);
  BasicBlock block(4, 4, 1, rng);
  Tensor y = block.forward(Tensor::uniform({2, 4, 8, 8}, rng));
  EXPECT_EQ(y.shape(), (Shape{2, 4, 8, 8}));
}

TEST(BasicBlock, ProjectionDownsamples) {
  Rng rng(23);
  BasicBlock block(4, 8, 2, rng);
  Tensor y = block.forward(Tensor::uniform({2, 4, 8, 8}, rng));
  EXPECT_EQ(y.shape(), (Shape{2, 8, 4, 4}));
}

TEST(BasicBlock, GradCheck) {
  Rng rng(24);
  BasicBlock block(2, 4, 2, rng);
  // Small eps keeps finite differences away from the BN->ReLU kinks that a
  // larger perturbation would cross (the loss is piecewise-smooth).
  test::check_gradients(block, Tensor::uniform({2, 2, 4, 4}, rng), rng,
                        {.eps = 2e-3, .rel_tol = 6e-2, .abs_tol = 8e-3,
                         .max_coords = 20});
}

TEST(Sequential, ChainsLayersAndNames) {
  Rng rng(25);
  Sequential net;
  net.add(std::make_unique<Linear>(4, 8, rng), "fc1");
  net.add(std::make_unique<ReLU>(), "relu");
  net.add(std::make_unique<Linear>(8, 2, rng), "fc2");
  const auto params = net.parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "fc1.weight");
  EXPECT_EQ(params[3].name, "fc2.bias");
  Tensor y = net.forward(Tensor::uniform({3, 4}, rng));
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
}

TEST(Sequential, GradCheck) {
  Rng rng(26);
  Sequential net;
  net.add(std::make_unique<Linear>(4, 6, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Linear>(6, 3, rng));
  test::check_gradients(net, Tensor::uniform({2, 4}, rng), rng);
}

TEST(Sequential, ZeroGradClearsAll) {
  Rng rng(27);
  Sequential net;
  net.add(std::make_unique<Linear>(3, 3, rng));
  Tensor y = net.forward(Tensor::uniform({2, 3}, rng));
  net.backward(Tensor(y.shape(), 1.f));
  bool any_nonzero = false;
  for (auto& p : net.parameters()) {
    for (std::size_t i = 0; i < p.param->numel(); ++i) {
      any_nonzero |= p.param->grad[i] != 0.f;
    }
  }
  EXPECT_TRUE(any_nonzero);
  net.zero_grad();
  for (auto& p : net.parameters()) {
    for (std::size_t i = 0; i < p.param->numel(); ++i) {
      EXPECT_EQ(p.param->grad[i], 0.f);
    }
  }
}

TEST(Loss, CrossEntropyKnownValue) {
  // Uniform logits: loss = log(C).
  Tensor logits({2, 4}, 0.f);
  const auto result = nn::softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(result.loss, std::log(4.f), 1e-5);
}

TEST(Loss, GradientSumsToZeroPerRow) {
  Rng rng(28);
  Tensor logits = Tensor::uniform({3, 5}, rng, -2.f, 2.f);
  const auto result = nn::softmax_cross_entropy(logits, {1, 2, 4});
  for (std::size_t i = 0; i < 3; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < 5; ++j) sum += result.grad_logits.at(i, j);
    EXPECT_NEAR(sum, 0.0, 1e-6);
  }
}

TEST(Loss, GradientMatchesFiniteDifference) {
  Rng rng(29);
  Tensor logits = Tensor::uniform({2, 3}, rng, -1.f, 1.f);
  const std::vector<std::size_t> labels = {2, 0};
  const auto result = nn::softmax_cross_entropy(logits, labels);
  const double eps = 1e-3;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor up = logits, down = logits;
    up[i] += static_cast<float>(eps);
    down[i] -= static_cast<float>(eps);
    const double numeric =
        (nn::softmax_cross_entropy(up, labels).loss -
         nn::softmax_cross_entropy(down, labels).loss) /
        (2 * eps);
    EXPECT_NEAR(result.grad_logits[i], numeric, 1e-3);
  }
}

TEST(Loss, LabelOutOfRangeThrows) {
  Tensor logits({1, 3}, 0.f);
  EXPECT_THROW(nn::softmax_cross_entropy(logits, {3}), Error);
}

TEST(Loss, AccuracyCounts) {
  Tensor logits({2, 2}, std::vector<float>{0.9f, 0.1f, 0.2f, 0.8f});
  EXPECT_DOUBLE_EQ(nn::accuracy(logits, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(nn::accuracy(logits, {1, 1}), 0.5);
}

// Every layer that takes its backward state from the lane store: after a
// training forward and a recycle of the store, backward must throw the
// layer's Error and leave every parameter gradient as it was, bit for bit;
// the next training forward claims a region again.
struct LaneLayerCase {
  const char* name;
  std::function<std::unique_ptr<nn::Module>(Rng&)> make;
  Shape input;
};

class LaneStoreRecycle : public ::testing::TestWithParam<LaneLayerCase> {};

TEST_P(LaneStoreRecycle, BackwardThrowsAndKeepsGradients) {
  const LaneLayerCase& c = GetParam();
  Rng rng(41);
  const std::unique_ptr<nn::Module> layer = c.make(rng);
  const Tensor x = Tensor::uniform(c.input, rng);
  const Tensor g = Tensor::uniform(layer->forward(x).shape(), rng);
  layer->backward(g);
  std::vector<Tensor> grads;
  for (const auto& ref : layer->parameters()) grads.push_back(ref.param->grad);
  layer->forward(x);
  nn::recycle_lane_store();
  EXPECT_THROW(layer->backward(g), Error);
  const auto params = layer->parameters();
  ASSERT_EQ(params.size(), grads.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(params[i].param->grad, grads[i]))
        << params[i].name;
  }
  layer->forward(x);
  EXPECT_EQ(layer->backward(g).shape(), x.shape());
}

template <typename Layer, typename... Args>
std::function<std::unique_ptr<nn::Module>(Rng&)> maker(Args... args) {
  return [=](Rng& rng) -> std::unique_ptr<nn::Module> {
    if constexpr (std::is_constructible_v<Layer, Args..., Rng&>) {
      return std::make_unique<Layer>(args..., rng);
    } else {
      return std::make_unique<Layer>(args...);
    }
  };
}

INSTANTIATE_TEST_SUITE_P(
    EveryLayer, LaneStoreRecycle,
    ::testing::Values(
        LaneLayerCase{"Linear", maker<Linear>(5u, 4u), {3, 5}},
        LaneLayerCase{"ReLU", maker<ReLU>(), {3, 7}},
        LaneLayerCase{"Conv2d",
                      [](Rng& rng) -> std::unique_ptr<nn::Module> {
                        return std::make_unique<Conv2d>(2, 4, 3, rng, 1, 1);
                      },
                      {2, 2, 5, 5}},
        LaneLayerCase{"MaxPool2d", maker<MaxPool2d>(2u), {2, 3, 4, 4}},
        LaneLayerCase{"BatchNorm2d", maker<BatchNorm2d>(3u), {4, 3, 3, 3}},
        LaneLayerCase{"Dropout", maker<nn::Dropout>(0.5), {4, 6}},
        LaneLayerCase{"LSTM", maker<LSTM>(4u, 6u), {3, 5, 4}},
        LaneLayerCase{"GRU", maker<GRU>(4u, 6u), {3, 5, 4}},
        LaneLayerCase{"BasicBlock",
                      [](Rng& rng) -> std::unique_ptr<nn::Module> {
                        return std::make_unique<BasicBlock>(2, 4, 2, rng);
                      },
                      {2, 2, 4, 4}}),
    [](const auto& info) { return std::string(info.param.name); });

// Two models driven by hand on one thread with no recycle, their steps
// interleaved so that both hold backward state at once: each must give the
// outputs, input gradients and parameter gradients of the same model
// trained alone, bit for bit. Tests and benches that drive models by hand
// rely on this.
TEST(LaneStore, InterleavedModelsMatchTheirSingleRuns) {
  struct ModelCase {
    const char* name;
    std::function<std::unique_ptr<Sequential>(Rng&)> make;
    Shape input;
  };
  const ModelCase cases[] = {
      {"lenet5",
       [](Rng& rng) { return nn::make_lenet5(rng, 1, 16, 10, 0.5); },
       {4, 1, 16, 16}},
      {"vgg11", [](Rng& rng) { return nn::make_vgg11(rng, 3, 8, 10, 4); },
       {4, 3, 8, 8}},
      {"resnet18", [](Rng& rng) { return nn::make_resnet18(rng, 3, 10, 4); },
       {4, 3, 8, 8}},
      {"kws_lstm", [](Rng& rng) { return nn::make_kws_lstm(rng, 5, 6, 10); },
       {4, 7, 5}},
      {"kws_gru", [](Rng& rng) { return nn::make_kws_gru(rng, 5, 6, 10); },
       {4, 7, 5}},
  };
  constexpr std::size_t kSteps = 3;
  struct Step {
    Tensor out, grad_input;
    std::vector<Tensor> grads;
  };
  for (const ModelCase& c : cases) {
    // Per model: its construction seed and its step inputs and output
    // gradients.
    std::vector<Tensor> xs[2], gs[2];
    Rng data(43);
    for (int m = 0; m < 2; ++m) {
      for (std::size_t t = 0; t < kSteps; ++t) {
        xs[m].push_back(Tensor::uniform(c.input, data));
        gs[m].push_back(Tensor::uniform({c.input[0], 10}, data));
      }
    }
    const auto make = [&](int m) {
      Rng rng(50 + m);
      return c.make(rng);
    };
    const auto record = [](Sequential& model, Tensor out, Tensor grad_input) {
      Step step{std::move(out), std::move(grad_input), {}};
      for (const auto& ref : model.parameters()) {
        step.grads.push_back(ref.param->grad);
      }
      return step;
    };
    std::vector<Step> alone[2];
    for (int m = 0; m < 2; ++m) {
      const auto model = make(m);
      for (std::size_t t = 0; t < kSteps; ++t) {
        model->zero_grad();
        Tensor out = model->forward(xs[m][t]);
        Tensor grad_input = model->backward(gs[m][t]);
        alone[m].push_back(
            record(*model, std::move(out), std::move(grad_input)));
      }
    }
    const std::unique_ptr<Sequential> models[2] = {make(0), make(1)};
    for (std::size_t t = 0; t < kSteps; ++t) {
      Tensor outs[2];
      for (int m = 0; m < 2; ++m) {
        models[m]->zero_grad();
        outs[m] = models[m]->forward(xs[m][t]);
      }
      for (int m = 0; m < 2; ++m) {
        Tensor grad_input = models[m]->backward(gs[m][t]);
        const Step step =
            record(*models[m], std::move(outs[m]), std::move(grad_input));
        const std::string where = std::string(c.name) + " model " +
                                  std::to_string(m) + " step " +
                                  std::to_string(t);
        const Step& expect = alone[m][t];
        EXPECT_TRUE(bitwise_equal(step.out, expect.out)) << where;
        EXPECT_TRUE(bitwise_equal(step.grad_input, expect.grad_input))
            << where;
        ASSERT_EQ(step.grads.size(), expect.grads.size()) << where;
        for (std::size_t i = 0; i < step.grads.size(); ++i) {
          EXPECT_TRUE(bitwise_equal(step.grads[i], expect.grads[i]))
              << where << " parameter " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace apf
