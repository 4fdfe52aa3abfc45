#pragma once

#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "tape/tensor.hpp"

namespace neurfill::nn::testing {

/// Finite-difference gradient check: `fn` maps the (single) input tensor to
/// a scalar tensor.  Verifies reverse-mode gradients against central
/// differences.  Tolerances are loose because storage is float32.
inline void expect_gradcheck(
    const std::function<Tensor(const Tensor&)>& fn, Tensor input,
    float eps = 1e-2f, float rtol = 3e-2f, float atol = 1e-3f) {
  input.set_requires_grad(true);
  input.zero_grad();
  Tensor out = fn(input);
  ASSERT_EQ(out.numel(), 1) << "gradcheck function must return a scalar";
  out.backward();
  std::vector<float> analytic(input.grad(), input.grad() + input.numel());

  for (std::int64_t i = 0; i < input.numel(); ++i) {
    const float orig = input.data()[i];
    input.data()[i] = orig + eps;
    const float fp = fn(input).item();
    input.data()[i] = orig - eps;
    const float fm = fn(input).item();
    input.data()[i] = orig;
    const float numeric = (fp - fm) / (2.0f * eps);
    const float tol = atol + rtol * std::max(std::fabs(numeric),
                                             std::fabs(analytic[static_cast<std::size_t>(i)]));
    EXPECT_NEAR(analytic[static_cast<std::size_t>(i)], numeric, tol)
        << "gradient mismatch at flat index " << i;
  }
}

/// Multi-input variant: checks the gradient w.r.t. `inputs[check_index]`
/// while the others stay fixed.
inline void expect_gradcheck_multi(
    const std::function<Tensor(const std::vector<Tensor>&)>& fn,
    std::vector<Tensor> inputs, std::size_t check_index, float eps = 1e-2f,
    float rtol = 3e-2f, float atol = 1e-3f) {
  for (auto& t : inputs) t.set_requires_grad(true);
  for (auto& t : inputs) t.zero_grad();
  Tensor out = fn(inputs);
  ASSERT_EQ(out.numel(), 1);
  out.backward();
  Tensor target = inputs[check_index];
  std::vector<float> analytic(target.grad(), target.grad() + target.numel());

  for (std::int64_t i = 0; i < target.numel(); ++i) {
    const float orig = target.data()[i];
    target.data()[i] = orig + eps;
    const float fp = fn(inputs).item();
    target.data()[i] = orig - eps;
    const float fm = fn(inputs).item();
    target.data()[i] = orig;
    const float numeric = (fp - fm) / (2.0f * eps);
    const float tol = atol + rtol * std::max(std::fabs(numeric),
                                             std::fabs(analytic[static_cast<std::size_t>(i)]));
    EXPECT_NEAR(analytic[static_cast<std::size_t>(i)], numeric, tol)
        << "gradient mismatch at input " << check_index << " flat index " << i;
  }
}

/// Deterministic pseudo-random tensor in [lo, hi).
inline Tensor random_tensor(std::vector<int> shape, unsigned seed,
                            float lo = -1.0f, float hi = 1.0f) {
  Tensor t(std::move(shape));
  unsigned state = seed * 2654435761u + 12345u;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    state = state * 1664525u + 1013904223u;
    const float u = static_cast<float>(state >> 8) /
                    static_cast<float>(1u << 24);
    t.data()[i] = lo + (hi - lo) * u;
  }
  return t;
}

}  // namespace neurfill::nn::testing
