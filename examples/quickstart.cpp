// Quickstart: the complete NeurFill flow on a small synthetic design.
//
//   1. Generate (or load) a layout and divide it into windows.
//   2. Build the fill problem: CMP simulator + calibrated score
//      coefficients.
//   3. Load the pre-trained CMP surrogate (or train a small one on the fly
//      if the cached artifact is missing; a corrupt one is an error).
//   4. Run NeurFill (PKB) and report the before/after quality.
//   5. Materialize the dummies and write the filled layout as GLF.
//
// Usage: quickstart [surrogate_prefix] [windows]

#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "fill/neurfill.hpp"
#include "fill/pipeline.hpp"
#include "fill/report.hpp"
#include "geom/designs.hpp"
#include "geom/glf_io.hpp"

using namespace neurfill;

int main(int argc, char** argv) {
  const std::string prefix = argc > 1 ? argv[1] : "data/unet_cmp";
  const int windows = argc > 2 ? std::atoi(argv[2]) : 16;

  // 1. A CMP-test-chip-like layout (Design A analogue).
  const Layout layout = make_design('a', windows, 100.0, /*seed=*/1);
  std::printf("design %s: %.1f x %.1f mm, %zu layers, %zu wires\n",
              layout.name.c_str(), layout.width_um / 1000.0,
              layout.height_um / 1000.0, layout.num_layers(),
              layout.total_wire_count());
  // 2. Problem setup: windows, simulator + contest-style coefficients
  //    (Table II).
  FillProblem problem =
      make_fill_problem(layout, ExtractOptions(), CmpProcessParams());
  const WindowExtraction& ext = problem.extraction();
  std::printf("windows: %zu x %zu x %zu layers\n", ext.rows, ext.cols,
              ext.num_layers());

  // 3. The CMP neural network (Fig. 4).
  Expected<std::shared_ptr<CmpSurrogate>> surrogate =
      load_or_quick_train(prefix, ext, problem.simulator());
  if (!surrogate.ok()) {
    std::fprintf(stderr, "error: %s\n", surrogate.error().to_string().c_str());
    return 1;
  }
  CmpNetwork network(*surrogate, ext, problem.coefficients());
  calibrate_network(network, problem);  // anchor relaxed metrics (2 sims)

  // 4. NeurFill (PKB).
  const QualityBreakdown before = problem.evaluate(problem.zero_fill());
  NeurFillOptions opt;
  const FillRunResult run = neurfill_pkb(problem, network, opt);
  const QualityBreakdown after = problem.evaluate(run.x);
  std::printf("\nquality before fill: %.4f  (sigma=%.0fA^2, dH via sim)\n",
              before.s_qual, before.planarity.sigma);
  std::printf("quality after  fill: %.4f  (sigma=%.0fA^2)\n", after.s_qual,
              after.planarity.sigma);
  std::printf("runtime %.1fs, %ld network evaluations, %d SQP iterations\n",
              run.runtime_s, run.objective_evaluations, run.iterations);

  // 5. Fill insertion + output.
  Layout filled = layout;
  const std::size_t dummies = insert_dummies(filled, ext, run.x);
  write_glf_file("quickstart_filled.glf", filled);
  std::printf("inserted %zu dummies; wrote quickstart_filled.glf (%zu bytes)\n",
              dummies, glf_encoded_size(filled));
  return 0;
}
