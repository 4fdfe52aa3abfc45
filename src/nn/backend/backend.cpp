#include "nn/backend/backend.hpp"

#include "common/check.hpp"
#include "nn/backend/cpu_backend.hpp"

namespace neurfill::nn {

namespace {

Backend*& active_backend() {
  // Function-local statics give a well-defined construction order even when
  // kernels run during static initialization of another translation unit.
  static CpuBackend cpu;
  static Backend* active = &cpu;
  return active;
}

}  // namespace

std::size_t Backend::conv_weight_pack_floats(const Conv2dGeom&) { return 0; }

void Backend::conv_weight_pack(const Conv2dGeom&, const float*, float*) {
  NF_CHECK(false,
           "conv_weight_pack: backend '%s' advertises no packed weight form",
           name());
}

Backend& backend() { return *active_backend(); }

Backend* set_backend(Backend* b) {
  NF_CHECK(b != nullptr, "set_backend: null backend");
  Backend* prev = active_backend();
  active_backend() = b;
  return prev;
}

}  // namespace neurfill::nn
