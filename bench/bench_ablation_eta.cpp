// Ablation: the outlier-relaxation sharpness eta (Eq. 10c).  The exact
// outlier objective max(0, H - threshold) is non-differentiable; the paper
// replaces it with a sigmoid, this implementation with softplus(eta*.)/eta.
// Small eta over-smooths (the relaxed value overestimates and its gradient
// leaks everywhere); large eta approaches the exact kink (accurate value,
// but harder optimization).  This bench sweeps eta and reports the relaxed
// value's error against the exact metric plus the end-to-end quality after
// SQP refinement.

#include <cmath>
#include <cstdio>
#include <memory>

#include "fill/metrics.hpp"
#include "fill/neurfill.hpp"

#include "bench_util.hpp"

using namespace neurfill;

int main() {
  std::printf("=== Ablation: outlier relaxation sharpness eta ===\n");
  neurfill::bench::ProblemBundle base = neurfill::bench::make_bundle('a', 24);
  const std::vector<GridD> x0 = base.problem.zero_fill();

  // Exact outlier metric of the surrogate's predicted heights (so the
  // comparison isolates the relaxation, not the surrogate error).
  const std::vector<GridD> pred = base.network->predict_heights(x0);
  const PlanarityMetrics exact = compute_planarity(pred);

  std::printf("\n%8s %16s %16s %18s\n", "eta", "relaxed ol", "exact ol",
              "final quality");
  for (const double eta : {0.005, 0.02, 0.05, 0.2, 1.0}) {
    // Clone the surrogate with a different eta; the weights are copied, so
    // the predictions match.
    auto cfg = base.surrogate->config();
    cfg.outlier_eta = eta;
    auto clone = std::make_shared<CmpSurrogate>(cfg, 1);
    clone->parameters() = base.surrogate->parameters();
    CmpNetwork network(clone, base.problem.extraction(),
                       base.problem.coefficients());

    const CmpNetwork::Eval eval = network.evaluate(x0, false);

    NeurFillOptions opt;
    opt.sqp.max_iterations = 25;
    opt.pkb_steps = 6;
    const FillRunResult run = neurfill_pkb(base.problem, network, opt);
    const double q_true = base.problem.evaluate(run.x).s_qual;

    std::printf("%8.3f %16.1f %16.1f %18.4f\n", eta, eval.outliers,
                exact.outliers, q_true);
  }
  std::printf("\nexpected shape: relaxed ol approaches the exact value as eta "
              "grows; final quality is flat over a broad middle range "
              "(the default 0.05 sits there)\n");
  return 0;
}
