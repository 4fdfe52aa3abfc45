#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/parameters.hpp"
#include "tape/ops.hpp"
#include "tape/tensor.hpp"

namespace neurfill::nn {

/// Base class for trainable network components.  Parameters and submodules
/// are registered by name so optimizers and the flat-set conversion below
/// can walk the whole tree with hierarchical names ("enc0.conv1.weight").
class Module {
 public:
  virtual ~Module() = default;

  virtual Tensor forward(const Tensor& x) = 0;
  Tensor operator()(const Tensor& x) { return forward(x); }

  /// All parameters of this module and its submodules, depth first, with
  /// dotted path names.
  std::vector<std::pair<std::string, Tensor>> named_parameters() const;
  std::vector<Tensor> parameters() const;
  std::int64_t parameter_count() const;
  void zero_grad();

 protected:
  Tensor register_parameter(const std::string& name, Tensor t);
  void register_module(const std::string& name, std::shared_ptr<Module> m);

 private:
  std::vector<std::pair<std::string, Tensor>> params_;
  std::vector<std::pair<std::string, std::shared_ptr<Module>>> children_;
};

/// The module's parameters copied into a flat set, named and ordered like
/// named_parameters(): the form the network engine compiles from.
ParameterSet to_parameter_set(const Module& module);
/// Copies `set` into the module's parameters; names, order and shapes must
/// match (throws std::invalid_argument otherwise).
void load_parameter_set(Module& module, const ParameterSet& set);

/// 2-D convolution layer with He-normal initialization.
class Conv2d : public Module {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride,
         int padding, Rng& rng);
  Tensor forward(const Tensor& x) override;

 private:
  Tensor weight_, bias_;
  int stride_, padding_;
};

/// Group normalization layer (gamma=1, beta=0 at init).
class GroupNorm : public Module {
 public:
  GroupNorm(int channels, int groups);
  Tensor forward(const Tensor& x) override;

 private:
  Tensor gamma_, beta_;
  int groups_;
};

/// conv3x3 [-> GroupNorm] -> ReLU, twice: the standard UNet block.  The
/// normalization is optional (see UNetConfig::use_group_norm).
class DoubleConv : public Module {
 public:
  DoubleConv(int in_channels, int out_channels, Rng& rng,
             bool use_group_norm = true);
  Tensor forward(const Tensor& x) override;

 private:
  std::shared_ptr<Conv2d> conv1_, conv2_;
  std::shared_ptr<GroupNorm> norm1_, norm2_;  ///< null when norm disabled
};

}  // namespace neurfill::nn
