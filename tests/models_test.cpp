#include <gtest/gtest.h>

#include "nn/loss.h"
#include "nn/models.h"
#include "nn/param_vector.h"
#include "util/error.h"
#include "util/rng.h"

namespace apf {
namespace {

TEST(LeNet5, OutputShapeAndParamCount) {
  Rng rng(1);
  auto net = nn::make_lenet5(rng, 3, 32, 10, 1.0);
  Tensor y = net->forward(Tensor::uniform({2, 3, 32, 32}, rng));
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
  // Classic LeNet-5 on 3x32x32: conv1 3*6*25+6, conv2 6*16*25+16,
  // fc 400*120+120, 120*84+84, 84*10+10.
  const std::size_t expect = (3 * 6 * 25 + 6) + (6 * 16 * 25 + 16) +
                             (400 * 120 + 120) + (120 * 84 + 84) +
                             (84 * 10 + 10);
  EXPECT_EQ(net->parameter_count(), expect);
}

TEST(LeNet5, ScaledWidths) {
  Rng rng(2);
  auto tiny = nn::make_lenet5(rng, 1, 16, 4, 0.5);
  Tensor y = tiny->forward(Tensor::uniform({1, 1, 16, 16}, rng));
  EXPECT_EQ(y.shape(), (Shape{1, 4}));
  auto full = nn::make_lenet5(rng, 1, 16, 4, 1.0);
  EXPECT_LT(tiny->parameter_count(), full->parameter_count());
}

TEST(LeNet5, TensorNamesMatchPaperLabels) {
  Rng rng(3);
  auto net = nn::make_lenet5(rng);
  const auto segs = nn::param_segments(*net);
  ASSERT_EQ(segs.size(), 10u);  // 5 layers x (weight, bias) as in Fig. 3
  EXPECT_EQ(segs[0].name, "conv1.weight");
  EXPECT_EQ(segs[1].name, "conv1.bias");
  EXPECT_EQ(segs[9].name, "fc3.bias");
}

TEST(ResNet18, OutputShape) {
  Rng rng(4);
  auto net = nn::make_resnet18(rng, 3, 10, /*base_width=*/8);
  Tensor y = net->forward(Tensor::uniform({2, 3, 16, 16}, rng));
  EXPECT_EQ(y.shape(), (Shape{2, 10}));
}

TEST(ResNet18, HasEighteenConvAndFcLayers) {
  // ResNet-18 = stem conv + 16 block convs + fc (projections excluded).
  Rng rng(5);
  auto net = nn::make_resnet18(rng, 3, 10, 4);
  std::size_t convs = 0, fcs = 0;
  for (const auto& p : net->parameters()) {
    if (p.name.find("conv") != std::string::npos &&
        p.name.find("proj") == std::string::npos &&
        p.name.find("weight") != std::string::npos) {
      ++convs;
    }
    if (p.name == "fc.weight") ++fcs;
  }
  EXPECT_EQ(convs, 17u);  // stem + 16
  EXPECT_EQ(fcs, 1u);
}

TEST(ResNet18, FullWidthIsOverparameterized) {
  Rng rng(6);
  auto lenet = nn::make_lenet5(rng);
  auto resnet = nn::make_resnet18(rng, 3, 10, 64);
  EXPECT_GT(resnet->parameter_count(), 10 * lenet->parameter_count());
}

TEST(ResNet18, HasBatchNormBuffers) {
  Rng rng(7);
  auto net = nn::make_resnet18(rng, 3, 10, 4);
  EXPECT_FALSE(net->buffers().empty());
}

TEST(KwsLstm, OutputShape) {
  Rng rng(8);
  auto net = nn::make_kws_lstm(rng, 8, 16, 10);
  Tensor y = net->forward(Tensor::uniform({3, 12, 8}, rng));
  EXPECT_EQ(y.shape(), (Shape{3, 10}));
}

TEST(KwsLstm, TwoRecurrentLayers) {
  Rng rng(9);
  auto net = nn::make_kws_lstm(rng, 8, 64, 10);
  std::size_t lstm_weights = 0;
  for (const auto& p : net->parameters()) {
    if (p.name.find("lstm") != std::string::npos) ++lstm_weights;
  }
  EXPECT_EQ(lstm_weights, 6u);  // 2 layers x (w_ih, w_hh, bias)
}

TEST(Mlp, ShapeAndDepth) {
  Rng rng(10);
  auto net = nn::make_mlp(rng, 6, 16, 3, 4);
  Tensor y = net->forward(Tensor::uniform({5, 6}, rng));
  EXPECT_EQ(y.shape(), (Shape{5, 4}));
  // 3 hidden layers + head = 4 Linear layers = 8 parameter tensors.
  EXPECT_EQ(net->parameters().size(), 8u);
}

TEST(ParamVector, SegmentsTileTheVector) {
  Rng rng(12);
  auto net = nn::make_lenet5(rng, 1, 16, 4, 0.5);
  const auto segs = nn::param_segments(*net);
  std::size_t offset = 0;
  for (const auto& seg : segs) {
    EXPECT_EQ(seg.offset, offset);
    EXPECT_GT(seg.size, 0u);
    offset += seg.size;
  }
  EXPECT_EQ(offset, net->parameter_count());
}

TEST(ParamVector, BufferRoundTrip) {
  Rng rng(14);
  auto net = nn::make_resnet18(rng, 3, 10, 4);
  auto buffers = nn::flatten_buffers(*net);
  EXPECT_FALSE(buffers.empty());
  for (auto& v : buffers) v = 0.25f;
  nn::load_buffers(*net, buffers);
  EXPECT_EQ(nn::flatten_buffers(*net), buffers);
}

TEST(Models, IdenticalSeedsGiveIdenticalModels) {
  Rng rng1(77), rng2(77);
  auto a = nn::make_lenet5(rng1, 1, 16, 4, 0.5);
  auto b = nn::make_lenet5(rng2, 1, 16, 4, 0.5);
  EXPECT_EQ(nn::flatten_params(*a), nn::flatten_params(*b));
}

TEST(Models, TinyMlpLearnsXorLikeTask) {
  // End-to-end training smoke test: separable 2-class blobs.
  Rng rng(16);
  auto net = nn::make_mlp(rng, 2, 16, 1, 2);
  const std::size_t n = 64;
  Tensor x({n, 2});
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t cls = i % 2;
    labels[i] = cls;
    const float cx = cls == 0 ? -1.f : 1.f;
    x.at(i, 0) = cx + static_cast<float>(rng.normal(0, 0.3));
    x.at(i, 1) = -cx + static_cast<float>(rng.normal(0, 0.3));
  }
  float first_loss = 0.f, last_loss = 0.f;
  for (int step = 0; step < 200; ++step) {
    net->zero_grad();
    const Tensor logits = net->forward(x);
    const auto loss = nn::softmax_cross_entropy(logits, labels);
    net->backward(loss.grad_logits);
    for (auto& p : net->parameters()) {
      for (std::size_t i = 0; i < p.param->numel(); ++i) {
        p.param->value[i] -= 0.3f * p.param->grad[i];
      }
    }
    if (step == 0) first_loss = loss.loss;
    last_loss = loss.loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.2f);
  EXPECT_GT(nn::accuracy(net->forward(x), labels), 0.95);
}

}  // namespace
}  // namespace apf
