#include "tape/module.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace neurfill::nn {

std::vector<std::pair<std::string, Tensor>> Module::named_parameters() const {
  std::vector<std::pair<std::string, Tensor>> out;
  for (const auto& [name, t] : params_) out.emplace_back(name, t);
  for (const auto& [name, child] : children_)
    for (const auto& [pname, t] : child->named_parameters())
      out.emplace_back(name + "." + pname, t);
  return out;
}

std::vector<Tensor> Module::parameters() const {
  std::vector<Tensor> out;
  for (auto& [name, t] : named_parameters()) out.push_back(t);
  return out;
}

std::int64_t Module::parameter_count() const {
  std::int64_t n = 0;
  for (const auto& t : parameters()) n += t.numel();
  return n;
}

void Module::zero_grad() {
  for (auto t : parameters()) t.zero_grad();
}

Tensor Module::register_parameter(const std::string& name, Tensor t) {
  t.set_requires_grad(true);
  params_.emplace_back(name, t);
  return t;
}

void Module::register_module(const std::string& name,
                             std::shared_ptr<Module> m) {
  if (!m) throw std::invalid_argument("register_module: null module");
  children_.emplace_back(name, std::move(m));
}

ParameterSet to_parameter_set(const Module& module) {
  ParameterSet set;
  const auto named = module.named_parameters();
  for (const auto& [name, t] : named) set.add(name, t.shape());
  for (std::size_t i = 0; i < named.size(); ++i)
    std::memcpy(set.data(i), named[i].second.data(),
                set.spec(i).numel * sizeof(float));
  return set;
}

void load_parameter_set(Module& module, const ParameterSet& set) {
  const auto named = module.named_parameters();
  if (named.size() != set.size())
    throw std::invalid_argument("load_parameter_set: parameter count mismatch");
  for (std::size_t i = 0; i < named.size(); ++i) {
    if (named[i].first != set.spec(i).name ||
        named[i].second.shape() != set.spec(i).shape)
      throw std::invalid_argument("load_parameter_set: mismatch at " +
                                  set.spec(i).name);
    std::memcpy(named[i].second.data(), set.data(i),
                set.spec(i).numel * sizeof(float));
  }
}

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int padding, Rng& rng)
    : stride_(stride), padding_(padding) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0)
    throw std::invalid_argument("Conv2d: bad dimensions");
  Tensor w({out_channels, in_channels, kernel, kernel});
  // He-normal: std = sqrt(2 / fan_in) suits the following ReLU.
  const double stddev =
      std::sqrt(2.0 / (static_cast<double>(in_channels) * kernel * kernel));
  for (std::int64_t i = 0; i < w.numel(); ++i)
    w.data()[i] = static_cast<float>(rng.normal(0.0, stddev));
  weight_ = register_parameter("weight", w);
  bias_ = register_parameter("bias", Tensor({out_channels}));
}

Tensor Conv2d::forward(const Tensor& x) {
  return conv2d(x, weight_, bias_, stride_, padding_);
}

GroupNorm::GroupNorm(int channels, int groups) : groups_(groups) {
  gamma_ = register_parameter("gamma", Tensor::ones({channels}));
  beta_ = register_parameter("beta", Tensor({channels}));
}

Tensor GroupNorm::forward(const Tensor& x) {
  return group_norm(x, groups_, gamma_, beta_);
}

DoubleConv::DoubleConv(int in_channels, int out_channels, Rng& rng,
                       bool use_group_norm) {
  conv1_ = std::make_shared<Conv2d>(in_channels, out_channels, 3, 1, 1, rng);
  conv2_ = std::make_shared<Conv2d>(out_channels, out_channels, 3, 1, 1, rng);
  register_module("conv1", conv1_);
  register_module("conv2", conv2_);
  if (use_group_norm) {
    norm1_ =
        std::make_shared<GroupNorm>(out_channels, norm_groups(out_channels));
    norm2_ =
        std::make_shared<GroupNorm>(out_channels, norm_groups(out_channels));
    register_module("norm1", norm1_);
    register_module("norm2", norm2_);
  }
}

Tensor DoubleConv::forward(const Tensor& x) {
  Tensor h = conv1_->forward(x);
  if (norm1_) h = norm1_->forward(h);
  h = conv2_->forward(relu(h));
  if (norm2_) h = norm2_->forward(h);
  return relu(h);
}

}  // namespace neurfill::nn
