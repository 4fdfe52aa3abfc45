#pragma once

// Shared setup for the experiment benches: problem construction and
// surrogate loading with a quick-train fallback when the cached artifact
// (data/unet_cmp, produced by examples/train_surrogate) is absent.

#include <cstdlib>
#include <memory>
#include <string>

#include "fill/pipeline.hpp"
#include "geom/designs.hpp"

namespace neurfill::bench {

inline std::string surrogate_prefix() {
  const char* env = std::getenv("NEURFILL_SURROGATE");
  return env ? env : "data/unet_cmp";
}

struct ProblemBundle {
  Layout layout;
  FillProblem problem;
  std::shared_ptr<CmpSurrogate> surrogate;
  std::unique_ptr<CmpNetwork> network;
};

/// The surrogate at surrogate_prefix(), quick-trained on `ext` when none
/// exists there; a corrupt one stops the bench.
inline std::shared_ptr<CmpSurrogate> load_or_quick_train(
    const WindowExtraction& ext, const CmpSimulator& sim) {
  Expected<std::shared_ptr<CmpSurrogate>> s =
      neurfill::load_or_quick_train(surrogate_prefix(), ext, sim);
  if (!s.ok()) throw ErrorException(s.error());
  return std::move(*s);
}

inline ProblemBundle make_bundle(char design, int windows,
                                 std::uint64_t seed = 1) {
  Layout layout = make_design(design, windows, 100.0, seed);
  FillProblem problem =
      make_fill_problem(layout, ExtractOptions(), CmpProcessParams());
  ProblemBundle b{std::move(layout), std::move(problem), nullptr, nullptr};
  b.surrogate =
      load_or_quick_train(b.problem.extraction(), b.problem.simulator());
  b.network = std::make_unique<CmpNetwork>(
      b.surrogate, b.problem.extraction(), b.problem.coefficients());
  calibrate_network(*b.network, b.problem);  // two-anchor simulator fit
  return b;
}

}  // namespace neurfill::bench
