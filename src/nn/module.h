// Neural-network module interface.
//
// Layers implement explicit forward/backward passes (no tape autograd): a
// training-mode forward keeps what its backward needs. This keeps the
// substrate small, fast, and easy to verify against finite differences.
//
// That backward state is not the model's: it is dead between a backward and
// the next training forward, so each layer holds it in the calling thread's
// lane store (nn/lane_store.h) through a LaneBuffer, and a run keeps one
// model's backward state per pool lane rather than one per client. A model
// keeps only what outlives a step: parameters, gradients, BatchNorm running
// statistics, RNG state and shapes.
//
// Parameters are exposed through ParamRef so higher layers (optimizers, the
// FL runtime, the APF manager) can address every trainable scalar of a model
// as one flat vector — the representation the paper's algorithm operates on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace apf::nn {

/// A trainable tensor and its gradient accumulator.
struct Parameter {
  explicit Parameter(Tensor v) : value(std::move(v)), grad(value.shape()) {}

  Tensor value;
  Tensor grad;

  void zero_grad() { grad.zero(); }
  std::size_t numel() const { return value.numel(); }
};

/// Non-owning named handle to a module's parameter.
struct ParamRef {
  std::string name;
  Parameter* param = nullptr;
};

/// Non-owning named handle to a non-trainable state tensor (e.g. BatchNorm
/// running statistics) that must still be synchronized across FL clients.
struct BufferRef {
  std::string name;
  Tensor* buffer = nullptr;
};

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the output for `input`; in training mode it holds what
  /// backward() reads in the calling thread's lane store.
  virtual Tensor forward(const Tensor& input) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must be called on the thread of a training-mode forward()
  /// with matching shapes, with no recycle of its lane store in between;
  /// otherwise a layer that reads backward state throws Error and leaves
  /// every gradient as it was.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Appends this module's parameters (prefixed names) to `out`.
  virtual void collect_params(const std::string& prefix,
                              std::vector<ParamRef>& out);

  /// Appends non-trainable synchronized state (default: none).
  virtual void collect_buffers(const std::string& prefix,
                               std::vector<BufferRef>& out);

  /// Switches train/eval behaviour (BatchNorm, Dropout-like layers).
  virtual void set_training(bool training) { training_ = training; }
  bool training() const { return training_; }

  /// All parameters of this module tree.
  std::vector<ParamRef> parameters();
  std::vector<BufferRef> buffers();

  /// Total trainable scalar count.
  std::size_t parameter_count();

  /// Zeroes every parameter gradient.
  void zero_grad();

 protected:
  bool training_ = true;
};

/// Ordered container of sub-modules; forward/backward chain through them.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns *this for chaining.
  Sequential& add(std::unique_ptr<Module> layer, std::string name = "");

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix,
                      std::vector<ParamRef>& out) override;
  void collect_buffers(const std::string& prefix,
                       std::vector<BufferRef>& out) override;
  void set_training(bool training) override;

  std::size_t size() const { return layers_.size(); }
  Module& layer(std::size_t i) { return *layers_[i].module; }

 private:
  struct Entry {
    std::unique_ptr<Module> module;
    std::string name;
  };
  std::vector<Entry> layers_;
};

}  // namespace apf::nn
