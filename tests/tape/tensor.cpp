#include "tape/tensor.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_set>  // nf-lint: allow(determinism) — membership only

#include "common/check.hpp"

namespace neurfill::nn {

Tensor::Tensor(std::vector<int> shape, bool requires_grad) {
  for (const int d : shape)
    if (d <= 0) throw std::invalid_argument("Tensor: non-positive dimension");
  if (shape.size() > 4)
    throw std::invalid_argument("Tensor: more than 4 dimensions");
  impl_ = std::make_shared<detail::TensorImpl>();
  impl_->shape = std::move(shape);
  impl_->data.assign(static_cast<std::size_t>(impl_->numel()), 0.0f);
  impl_->requires_grad = requires_grad;
}

Tensor Tensor::zeros(std::vector<int> shape, bool requires_grad) {
  return Tensor(std::move(shape), requires_grad);
}

Tensor Tensor::ones(std::vector<int> shape, bool requires_grad) {
  return full(std::move(shape), 1.0f, requires_grad);
}

Tensor Tensor::full(std::vector<int> shape, float value, bool requires_grad) {
  Tensor t(std::move(shape), requires_grad);
  std::fill(t.impl_->data.begin(), t.impl_->data.end(), value);
  return t;
}

Tensor Tensor::from_data(std::vector<int> shape, std::vector<float> values,
                         bool requires_grad) {
  Tensor t(std::move(shape), requires_grad);
  if (t.impl_->data.size() != values.size())
    throw std::invalid_argument("Tensor::from_data: size mismatch");
  t.impl_->data = std::move(values);
  return t;
}

Tensor Tensor::scalar(float value, bool requires_grad) {
  return from_data({1}, {value}, requires_grad);
}

float Tensor::item() const {
  if (numel() != 1) throw std::logic_error("Tensor::item on non-scalar");
  return impl_->data[0];
}

float* Tensor::grad() const {
  NF_CHECK(defined(), "Tensor::grad on undefined tensor");
  impl_->ensure_grad();
  NF_CHECK(impl_->grad.size() == impl_->data.size(),
           "Tensor::grad: grad buffer %zu elements, data %zu",
           impl_->grad.size(), impl_->data.size());
  return impl_->grad.data();
}

void Tensor::zero_grad() const {
  if (!impl_->grad.empty())
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
}

Tensor Tensor::detach() const {
  Tensor t;
  t.impl_ = std::make_shared<detail::TensorImpl>();
  t.impl_->shape = impl_->shape;
  t.impl_->data = impl_->data;
  t.impl_->requires_grad = false;
  return t;
}

void Tensor::attach_backward(Tensor& out, const std::vector<Tensor>& inputs,
                             std::function<void()> backward) {
  NF_CHECK(out.defined(), "attach_backward: undefined output");
  bool any = false;
  for (const Tensor& t : inputs) {
    NF_CHECK(t.defined(), "attach_backward: undefined input");
    any = any || t.requires_grad();
  }
  if (!any) return;
  out.impl_->requires_grad = true;
  out.impl_->parents.reserve(inputs.size());
  for (const Tensor& t : inputs) out.impl_->parents.push_back(t.impl());
  out.impl_->backward_fn = std::move(backward);
}

void Tensor::backward() {
  if (numel() != 1)
    throw std::logic_error("Tensor::backward: root must be a scalar");
  if (!impl_->requires_grad)
    throw std::logic_error("Tensor::backward: root does not require grad");

  // Iterative DFS topological sort over the tape.
  std::vector<detail::TensorImpl*> order;
  // Membership-only visited set: its iteration order is never observed,
  // so hash ordering cannot leak into results.  Traversal order comes
  // from the deterministic `parents` vectors.
  // nf-lint: allow(determinism)
  std::unordered_set<detail::TensorImpl*> visited;
  std::vector<std::pair<detail::TensorImpl*, std::size_t>> stack;
  stack.emplace_back(impl_.get(), 0);
  visited.insert(impl_.get());
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < node->parents.size()) {
      detail::TensorImpl* p = node->parents[next++].get();
      if (p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.emplace_back(p, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }

  impl_->ensure_grad();
  impl_->grad[0] = 1.0f;
  // `order` is post-order (parents before children), so walk it backwards:
  // children first, propagating grads down the tape.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    detail::TensorImpl* node = *it;
    if (!node->backward_fn) continue;
    node->ensure_grad();
    NF_CHECK(node->grad.size() == node->data.size(),
             "Tensor::backward: grad/data size mismatch (%zu vs %zu)",
             node->grad.size(), node->data.size());
    for (auto& p : node->parents)
      if (p->requires_grad) p->ensure_grad();
    node->backward_fn();
  }
}

std::string shape_to_string(const std::vector<int>& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ',';
    os << shape[i];
  }
  os << ']';
  return os.str();
}

bool same_shape(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape();
}

}  // namespace neurfill::nn
