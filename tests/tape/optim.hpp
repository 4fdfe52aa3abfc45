#pragma once

#include <vector>

#include "tape/tensor.hpp"

namespace neurfill::nn {

/// Optimizer base: owns handles to the parameter tensors and updates their
/// data in place from the accumulated gradients.
class Optimizer {
 public:
  explicit Optimizer(std::vector<Tensor> params) : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  virtual void step() = 0;
  void zero_grad();

 protected:
  std::vector<Tensor> params_;
};

/// Adam [Kingma & Ba 2015] with bias correction.
class Adam : public Optimizer {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f);
  void step() override;
  void set_learning_rate(float lr) { lr_ = lr; }
  float learning_rate() const { return lr_; }

  /// Full optimizer state (step count + first/second moments), for
  /// checkpoint/resume.  restore_state returns false (leaving the optimizer
  /// untouched) when the moment layout does not match the parameters.
  struct State {
    std::int64_t t = 0;
    std::vector<std::vector<float>> m, v;
  };
  State export_state() const { return State{t_, m_, v_}; }
  bool restore_state(const State& st) {
    if (st.m.size() != m_.size() || st.v.size() != v_.size()) return false;
    for (std::size_t i = 0; i < m_.size(); ++i)
      if (st.m[i].size() != m_[i].size() || st.v[i].size() != v_[i].size())
        return false;
    t_ = st.t;
    m_ = st.m;
    v_ = st.v;
    return true;
  }

 private:
  float lr_, beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace neurfill::nn
