#include "fill/baselines.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"

namespace neurfill {

namespace {

/// Post-fill density variance of one layer under target density td (Eq. 18
/// applied analytically, no grids materialized).
double td_variance(const LayerWindowData& d, double td, double* fill_out) {
  const std::size_t n = d.slack.size();
  double mean = 0.0, fill = 0.0;
  std::vector<double> dens(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double rho = d.wire_density[k] + d.dummy_density[k];
    const double x = std::clamp(td - rho, 0.0, d.slack[k]);
    dens[k] = rho + x;
    fill += x;
    mean += dens[k];
  }
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (const double v : dens) var += (v - mean) * (v - mean);
  if (fill_out) *fill_out = fill;
  return var / static_cast<double>(n);
}

}  // namespace

FillRunResult lin_rule_fill(const FillProblem& problem, int steps) {
  // Method spans double as the stopwatch feeding runtime_s, so the Table
  // III runtime column and a --trace capture can never disagree.
  obs::SpanTimer timer("fill.lin");
  const WindowExtraction& ext = problem.extraction();
  FillRunResult res;
  res.method = "Lin";
  std::vector<double> td(ext.num_layers(), 0.0);
  for (std::size_t l = 0; l < ext.num_layers(); ++l) {
    const auto& d = ext.layers[l];
    double lo = 1.0, hi = 0.0;
    for (std::size_t k = 0; k < d.slack.size(); ++k) {
      const double rho = d.wire_density[k] + d.dummy_density[k];
      lo = std::min(lo, rho);
      hi = std::max(hi, rho + d.slack[k]);
    }
    double best_var = 1e300, best_fill = 1e300, best_td = lo;
    for (int s = 0; s < steps; ++s) {
      const double t = lo + (hi - lo) * static_cast<double>(s) /
                                static_cast<double>(steps - 1);
      double fill = 0.0;
      const double var = td_variance(d, t, &fill);
      // Minimize variance; among near-ties (within 2%), prefer less fill.
      const bool better = var < best_var * 0.98 ||
                          (var < best_var * 1.02 && fill < best_fill);
      if (better) {
        best_var = std::min(var, best_var);
        best_fill = fill;
        best_td = t;
      }
      ++res.objective_evaluations;
    }
    td[l] = best_td;
  }
  res.x = target_density_fill(ext, td);
  res.iterations = steps;
  res.runtime_s = timer.stop_seconds();
  return res;
}

FillRunResult tao_rule_sqp(const FillProblem& problem,
                           const TaoOptions& options) {
  obs::SpanTimer timer("fill.tao");
  const WindowExtraction& ext = problem.extraction();
  const std::size_t L = ext.num_layers();
  const std::size_t R = ext.rows, C = ext.cols;
  const std::size_t per_layer = R * C;
  long evals = 0;

  // Rule objective with analytic gradient: per layer,
  //   w_v * Var(rho + x) + w_g * sum of squared 4-neighbour density
  //   differences / n + w_f * mean(x).
  const ObjectiveFn rule = [&](const VecD& v, VecD* grad) -> double {
    ++evals;
    if (grad) grad->assign(v.size(), 0.0);
    double total = 0.0;
    const double inv_n = 1.0 / static_cast<double>(per_layer);
    for (std::size_t l = 0; l < L; ++l) {
      const auto& d = ext.layers[l];
      const std::size_t off = l * per_layer;
      std::vector<double> dens(per_layer);
      double mean = 0.0;
      for (std::size_t k = 0; k < per_layer; ++k) {
        dens[k] = d.wire_density[k] + d.dummy_density[k] + v[off + k];
        mean += dens[k];
      }
      mean *= inv_n;
      double var = 0.0;
      for (const double x : dens) var += (x - mean) * (x - mean);
      var *= inv_n;
      total += options.weight_variance * var;
      if (grad)
        for (std::size_t k = 0; k < per_layer; ++k)
          (*grad)[off + k] +=
              options.weight_variance * 2.0 * inv_n * (dens[k] - mean);
      // Spatial gradient smoothness (right and down neighbours).
      double sg = 0.0;
      for (std::size_t i = 0; i < R; ++i) {
        for (std::size_t j = 0; j < C; ++j) {
          const std::size_t k = i * C + j;
          if (j + 1 < C) {
            const double diff = dens[k] - dens[k + 1];
            sg += diff * diff;
            if (grad) {
              (*grad)[off + k] += options.weight_gradient * 2.0 * diff * inv_n;
              (*grad)[off + k + 1] -=
                  options.weight_gradient * 2.0 * diff * inv_n;
            }
          }
          if (i + 1 < R) {
            const double diff = dens[k] - dens[k + C];
            sg += diff * diff;
            if (grad) {
              (*grad)[off + k] += options.weight_gradient * 2.0 * diff * inv_n;
              (*grad)[off + k + C] -=
                  options.weight_gradient * 2.0 * diff * inv_n;
            }
          }
        }
      }
      total += options.weight_gradient * sg * inv_n;
      for (std::size_t k = 0; k < per_layer; ++k) {
        total += options.weight_fill * v[off + k] * inv_n;
        if (grad) (*grad)[off + k] += options.weight_fill * inv_n;
      }
    }
    return total;
  };

  const FillRunResult lin = lin_rule_fill(problem);
  const SqpResult sqp =
      sqp_minimize(rule, problem.flatten(lin.x), problem.bounds(), options.sqp);

  FillRunResult res;
  res.method = "Tao";
  res.x = problem.unflatten(sqp.x);
  res.iterations = sqp.iterations;
  res.objective_evaluations = evals;
  res.runtime_s = timer.stop_seconds();
  return res;
}

FillRunResult cai_model_fill(const FillProblem& problem,
                             const CaiOptions& options) {
  obs::SpanTimer timer("fill.cai");
  const long sims_before = problem.simulator_calls();
  // PKB starting point judged by the true simulator quality.
  const std::vector<GridD> start = pkb_starting_point(
      problem.extraction(),
      [&problem](const std::vector<GridD>& x) {
        return problem.evaluate(x).s_qual;
      },
      options.pkb_steps);
  const ObjectiveFn obj = problem.make_simulator_objective();
  SqpOptions sqp_options = options.sqp;
  sqp_options.cheap_gradient = false;  // a gradient costs n + 1 simulations
  const SqpResult sqp =
      sqp_minimize(obj, problem.flatten(start), problem.bounds(), sqp_options);

  FillRunResult res;
  res.method = "Cai";
  res.x = problem.unflatten(sqp.x);
  res.iterations = sqp.iterations;
  res.objective_evaluations = problem.simulator_calls() - sims_before;
  res.runtime_s = timer.stop_seconds();
  return res;
}

}  // namespace neurfill
