// Property sweeps over the optimizers: convergence on random strongly
// convex quadratics across condition numbers, learning rates, and both
// optimizers; plus schedule interaction invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "nn/module.h"
#include "optim/lr_schedule.h"
#include "optim/optimizer.h"
#include "util/rng.h"

namespace apf {
namespace {

/// A bag of scalars with externally supplied gradients.
class VectorModule : public nn::Module {
 public:
  explicit VectorModule(std::size_t dim, float init)
      : param_(Tensor({dim}, init)) {}
  Tensor forward(const Tensor& input) override { return input; }
  Tensor backward(const Tensor& grad) override { return grad; }
  void collect_params(const std::string& prefix,
                      std::vector<nn::ParamRef>& out) override {
    out.push_back({prefix + "x", &param_});
  }
  nn::Parameter& param() { return param_; }

 private:
  nn::Parameter param_;
};

struct QuadraticCase {
  double condition;  // eigenvalue spread: lambda in [1, condition]
  bool use_adam;
  double lr;
};

class QuadraticSweep : public ::testing::TestWithParam<QuadraticCase> {};

TEST_P(QuadraticSweep, ConvergesToOptimum) {
  const auto c = GetParam();
  const std::size_t dim = 12;
  Rng rng(static_cast<std::uint64_t>(c.condition * 100) + c.use_adam);
  // Diagonal quadratic: f(x) = 0.5 sum lambda_j (x_j - t_j)^2.
  std::vector<double> lambda(dim), target(dim);
  for (std::size_t j = 0; j < dim; ++j) {
    lambda[j] = 1.0 + (c.condition - 1.0) * rng.uniform();
    target[j] = rng.uniform(-2.0, 2.0);
  }
  VectorModule m(dim, 0.f);
  std::unique_ptr<optim::Optimizer> opt;
  if (c.use_adam) {
    opt = std::make_unique<optim::Adam>(m.parameters(), c.lr);
  } else {
    opt = std::make_unique<optim::Sgd>(m.parameters(), c.lr, 0.9);
  }
  for (int step = 0; step < 3000; ++step) {
    for (std::size_t j = 0; j < dim; ++j) {
      m.param().grad[j] = static_cast<float>(
          lambda[j] * (m.param().value[j] - target[j]));
    }
    opt->step();
  }
  for (std::size_t j = 0; j < dim; ++j) {
    ASSERT_NEAR(m.param().value[j], target[j], 5e-2)
        << "coordinate " << j << " lambda " << lambda[j];
  }
}

// gtest names each case after the raw bytes of its QuadraticCase, padding
// after use_adam included, and gtest_discover_tests copies that text into
// the ctest name. Stack temporaries leave the padding holding whatever was
// there, so the names changed from run to run. A table with static storage
// is zero-initialised first, padding included, and gtest copies the cases
// bitwise, so every run registers the same names.
constexpr QuadraticCase kQuadraticCases[] = {
    {1.0, false, 0.1}, {10.0, false, 0.05}, {50.0, false, 0.01},
    {1.0, true, 0.05}, {10.0, true, 0.05},  {50.0, true, 0.05}};

INSTANTIATE_TEST_SUITE_P(Conditions, QuadraticSweep,
                         ::testing::ValuesIn(kQuadraticCases));

class LrSweep : public ::testing::TestWithParam<double> {};

TEST_P(LrSweep, SgdStepIsExactlyLinearInLr) {
  const double lr = GetParam();
  VectorModule a(3, 1.f), b(3, 1.f);
  optim::Sgd opt_a(a.parameters(), lr);
  optim::Sgd opt_b(b.parameters(), 2.0 * lr);
  for (std::size_t j = 0; j < 3; ++j) {
    a.param().grad[j] = 0.5f;
    b.param().grad[j] = 0.5f;
  }
  opt_a.step();
  opt_b.step();
  for (std::size_t j = 0; j < 3; ++j) {
    const double step_a = 1.0 - a.param().value[j];
    const double step_b = 1.0 - b.param().value[j];
    ASSERT_NEAR(step_b, 2.0 * step_a, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, LrSweep,
                         ::testing::Values(1e-4, 1e-3, 1e-2, 1e-1));

TEST(ScheduleInteraction, SetLrTakesEffectImmediately) {
  VectorModule m(1, 0.f);
  optim::Sgd sgd(m.parameters(), 0.1);
  m.param().grad[0] = 1.f;
  sgd.step();
  EXPECT_FLOAT_EQ(m.param().value[0], -0.1f);
  sgd.set_lr(0.5);
  EXPECT_DOUBLE_EQ(sgd.lr(), 0.5);
  m.param().grad[0] = 1.f;
  sgd.step();
  EXPECT_FLOAT_EQ(m.param().value[0], -0.6f);
}

TEST(ScheduleInteraction, MultiplicativeDecayIsMonotone) {
  optim::MultiplicativeDecayLr schedule(0.1, 0.97, 3);
  double prev = schedule.lr(0);
  for (std::size_t k = 1; k < 200; ++k) {
    const double cur = schedule.lr(k);
    ASSERT_LE(cur, prev + 1e-15);
    prev = cur;
  }
  EXPECT_LT(schedule.lr(199), 0.1);
}

}  // namespace
}  // namespace apf
