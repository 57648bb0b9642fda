#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.h"
#include "nn/models.h"
#include "nn/param_vector.h"
#include "optim/fedprox.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "util/error.h"
#include "util/rng.h"

namespace apf {
namespace {

/// A single scalar "model" for hand-checking optimizer arithmetic.
class ScalarModule : public nn::Module {
 public:
  explicit ScalarModule(float init) : param_(Tensor({1}, init)) {}
  Tensor forward(const Tensor& input) override { return input; }
  Tensor backward(const Tensor& grad) override { return grad; }
  void collect_params(const std::string& prefix,
                      std::vector<nn::ParamRef>& out) override {
    out.push_back({prefix + "w", &param_});
  }
  nn::Parameter& param() { return param_; }

 private:
  nn::Parameter param_;
};

TEST(Sgd, PlainStep) {
  ScalarModule m(1.f);
  optim::Sgd sgd(m.parameters(), 0.1);
  m.param().grad[0] = 2.f;
  sgd.step();
  EXPECT_FLOAT_EQ(m.param().value[0], 1.f - 0.1f * 2.f);
}

TEST(Sgd, WeightDecayAddsToGradient) {
  ScalarModule m(1.f);
  optim::Sgd sgd(m.parameters(), 0.1, 0.0, /*weight_decay=*/0.5);
  m.param().grad[0] = 0.f;
  sgd.step();
  // g = 0 + 0.5 * 1 -> step 0.1 * 0.5
  EXPECT_FLOAT_EQ(m.param().value[0], 1.f - 0.05f);
}

TEST(Sgd, MomentumAccumulates) {
  ScalarModule m(0.f);
  optim::Sgd sgd(m.parameters(), 1.0, /*momentum=*/0.5);
  m.param().grad[0] = 1.f;
  sgd.step();  // v = 1, x = -1
  EXPECT_FLOAT_EQ(m.param().value[0], -1.f);
  m.param().grad[0] = 1.f;
  sgd.step();  // v = 0.5*1 + 1 = 1.5, x = -2.5
  EXPECT_FLOAT_EQ(m.param().value[0], -2.5f);
}

TEST(Sgd, ResetStateClearsMomentum) {
  ScalarModule m(0.f);
  optim::Sgd sgd(m.parameters(), 1.0, 0.9);
  m.param().grad[0] = 1.f;
  sgd.step();
  sgd.reset_state();
  m.param().grad[0] = 0.f;
  const float before = m.param().value[0];
  sgd.step();  // momentum cleared -> no movement
  EXPECT_FLOAT_EQ(m.param().value[0], before);
}

TEST(Adam, FirstStepIsSignedLr) {
  // With bias correction, the first Adam step is ~lr * sign(g).
  ScalarModule m(0.f);
  optim::Adam adam(m.parameters(), 0.01);
  m.param().grad[0] = 123.f;
  adam.step();
  EXPECT_NEAR(m.param().value[0], -0.01f, 1e-5f);
}

TEST(Adam, HandComputedTwoSteps) {
  ScalarModule m(0.f);
  const double lr = 0.1, b1 = 0.9, b2 = 0.999, eps = 1e-8;
  optim::Adam adam(m.parameters(), lr, b1, b2, eps);
  double mm = 0.0, vv = 0.0, x = 0.0;
  for (int t = 1; t <= 2; ++t) {
    const double g = 2.0;
    m.param().grad[0] = static_cast<float>(g);
    adam.step();
    mm = b1 * mm + (1 - b1) * g;
    vv = b2 * vv + (1 - b2) * g * g;
    const double mhat = mm / (1 - std::pow(b1, t));
    const double vhat = vv / (1 - std::pow(b2, t));
    x -= lr * mhat / (std::sqrt(vhat) + eps);
    EXPECT_NEAR(m.param().value[0], x, 1e-5);
  }
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize (x - 3)^2 by feeding gradient 2(x-3).
  ScalarModule m(0.f);
  optim::Adam adam(m.parameters(), 0.1);
  for (int i = 0; i < 500; ++i) {
    m.param().grad[0] = 2.f * (m.param().value[0] - 3.f);
    adam.step();
  }
  EXPECT_NEAR(m.param().value[0], 3.f, 1e-2f);
}

TEST(Sgd, ConvergesOnQuadraticBowl) {
  Rng rng(1);
  auto net = nn::make_mlp(rng, 2, 4, 1, 2);
  optim::Sgd sgd(net->parameters(), 0.05, 0.9);
  // Drive all parameters toward zero via gradient = value.
  for (int step = 0; step < 300; ++step) {
    for (auto& p : net->parameters()) {
      for (std::size_t i = 0; i < p.param->numel(); ++i) {
        p.param->grad[i] = p.param->value[i];
      }
    }
    sgd.step();
  }
  double norm = 0.0;
  for (float v : nn::flatten_params(*net)) norm += std::fabs(v);
  EXPECT_LT(norm, 1e-3);
}

TEST(Optimizer, ZeroGradClears) {
  ScalarModule m(0.f);
  optim::Sgd sgd(m.parameters(), 0.1);
  m.param().grad[0] = 5.f;
  sgd.zero_grad();
  EXPECT_EQ(m.param().grad[0], 0.f);
}

TEST(Optimizer, RejectsNonPositiveLr) {
  ScalarModule m(0.f);
  EXPECT_THROW(optim::Sgd(m.parameters(), 0.0), Error);
}

TEST(LrSchedule, MultiplicativeDecay) {
  optim::MultiplicativeDecayLr lr(0.1, 0.99, 10);
  EXPECT_DOUBLE_EQ(lr.lr(0), 0.1);
  EXPECT_DOUBLE_EQ(lr.lr(9), 0.1);
  EXPECT_NEAR(lr.lr(10), 0.099, 1e-12);
  EXPECT_NEAR(lr.lr(25), 0.1 * 0.99 * 0.99, 1e-12);
}

TEST(FedProx, ProximalGradientPullsTowardAnchor) {
  ScalarModule m(5.f);
  const std::vector<float> anchor = {2.f};
  m.param().grad[0] = 0.f;
  optim::add_proximal_grad(m, anchor, 0.1);
  EXPECT_NEAR(m.param().grad[0], 0.1f * (5.f - 2.f), 1e-6f);
}

TEST(FedProx, ZeroMuIsNoOp) {
  ScalarModule m(5.f);
  const std::vector<float> anchor = {0.f};
  m.param().grad[0] = 1.f;
  optim::add_proximal_grad(m, anchor, 0.0);
  EXPECT_FLOAT_EQ(m.param().grad[0], 1.f);
}

TEST(FedProx, AnchorSizeChecked) {
  ScalarModule m(1.f);
  const std::vector<float> wrong = {1.f, 2.f};
  EXPECT_THROW(optim::add_proximal_grad(m, wrong, 0.1), Error);
}

TEST(FedProx, KeepsIterateNearAnchorUnderConflict) {
  // With a strong proximal term, the minimizer of f(x) = x (gradient 1)
  // plus (mu/2)(x - a)^2 is a - 1/mu.
  ScalarModule m(0.f);
  optim::Sgd sgd(m.parameters(), 0.05);
  const std::vector<float> anchor = {1.f};
  const double mu = 2.0;
  for (int i = 0; i < 2000; ++i) {
    m.param().grad[0] = 1.f;
    optim::add_proximal_grad(m, anchor, mu);
    sgd.step();
  }
  EXPECT_NEAR(m.param().value[0], 1.f - 1.f / 2.f, 1e-3f);
}

}  // namespace
}  // namespace apf
