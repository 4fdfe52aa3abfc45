// Fill-loop surrogate throughput: objective evaluations per second through
// the batched candidate pipeline (CmpNetwork::evaluate_batch — one session
// run per layer for the whole candidate batch) vs the serial batch-1 loop
// the fill optimizer ran before cross-candidate batching.  Both paths
// return bitwise-identical values (test-pinned), so this measures pure
// throughput on the dominant fill-loop cost.
//
// Also times one value+gradient call (CmpNetwork::evaluate(x, true): the
// session forward plus the input VJP per layer) — what an accepted SQP step
// costs — at 16x16 windows and at the fill benchmark's 24x24 windows, whose
// 12-wide UNet stage the 16x16 plane never meets; and a 4-start MSP-SQP
// drive (msp_sqp_minimize) at 1 and at 4 threads, whose starts run
// concurrently.
//
// Emits a one-line JSON summary; --json FILE writes the same object for CI
// (tools/check_bench_regression.py gates fill_evals_per_s and
// msp_speedup_4t, higher is better, and sqp_grad_ms and sqp_grad_ms_24w,
// lower is better).  The throughput and gradient keys are measured
// single-threaded: the batched win here is amortized per-evaluation
// overhead (per-call kernel dispatch, session setup, GEMM panel reuse
// across the deep narrow conv levels), not extra cores.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "fill/neurfill.hpp"
#include "fill/problem.hpp"
#include "geom/designs.hpp"
#include "opt/msp.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/cmp_network.hpp"

namespace {

using namespace neurfill;

constexpr int kWindows = 16;  // the full-chip driver's default tile edge
constexpr int kFillWindows = 24;  // the fill benchmark's plane (stages 24/12/6/3)
constexpr int kBatch = 8;     // one NMMSO move batch
constexpr int kReps = 21;
constexpr int kMspStarts = 4;
constexpr int kMspReps = 7;

double best_s(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

/// Best-of-kReps seconds of fn() after one warm-up call.
template <typename Fn>
double best_of(Fn&& fn, int reps) {
  fn();
  std::vector<double> samples(static_cast<std::size_t>(reps));
  for (double& s : samples) {
    Timer t;
    fn();
    s = t.elapsed_seconds();
  }
  return best_s(samples);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];

  const Layout layout = make_design('a', kWindows, 100.0, /*seed=*/9);
  const WindowExtraction ext = extract_windows(layout);
  const CmpSimulator sim;
  const ScoreCoefficients coeffs = make_coefficients(layout, ext, sim);
  // Production surrogate shape (7ch, base 8, depth 3); random weights are
  // fine here — throughput does not depend on the training state.
  const SurrogateConfig cfg;
  const auto surrogate = std::make_shared<CmpSurrogate>(cfg, 21);
  const CmpNetwork net(surrogate, ext, coeffs);
  const std::size_t layers = ext.num_layers();

  // A batch of candidate fills, as the NMMSO move loop produces them.
  Rng rng(31);
  std::vector<std::vector<GridD>> xs(
      kBatch, std::vector<GridD>(layers, GridD(ext.rows, ext.cols, 0.0)));
  for (auto& x : xs)
    for (auto& g : x)
      for (auto& v : g) v = rng.uniform(0.0, 0.3);

  runtime::set_thread_count(1);

  const auto run_serial = [&] {
    double acc = 0.0;
    for (const auto& x : xs) acc += net.evaluate(x, false).s_plan;
    return acc;
  };
  const auto run_batched = [&] {
    double acc = 0.0;
    for (const auto& e : net.evaluate_batch(xs)) acc += e.s_plan;
    return acc;
  };

  const auto run_gradient = [&] { return net.evaluate(xs[0], true).s_plan; };

  run_serial();
  run_batched();  // warm-up (arena growth, scratch buffers)
  run_gradient();
  std::vector<double> serial_s(kReps), batched_s(kReps), grad_s(kReps);
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    run_serial();
    serial_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
  }
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    run_batched();
    batched_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
  }
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    run_gradient();
    grad_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
  }
  runtime::set_thread_count(0);

  const double serial_eps = kBatch / best_s(serial_s);
  const double batched_eps = kBatch / best_s(batched_s);
  const double speedup = batched_eps / serial_eps;
  const double grad_ms = best_s(grad_s) * 1e3;

  // The fill benchmark's plane: one value+gradient call, then a 4-start
  // MSP-SQP drive from uniform fractions of the slack.
  const Layout fill_layout = make_design('b', kFillWindows, 100.0, 9);
  const WindowExtraction fill_ext = extract_windows(fill_layout);
  const ScoreCoefficients fill_coeffs =
      make_coefficients(fill_layout, fill_ext, sim);
  const FillProblem problem(fill_ext, sim, fill_coeffs);
  const CmpNetwork fill_net(surrogate, fill_ext, fill_coeffs);
  std::vector<GridD> x24;
  for (const auto& l : fill_ext.layers) {
    GridD g = l.slack;
    for (auto& v : g) v *= rng.uniform(0.0, 0.5);
    x24.push_back(std::move(g));
  }
  runtime::set_thread_count(1);
  const double grad24_ms =
      best_of([&] { return fill_net.evaluate(x24, true).s_plan; }, kReps) *
      1e3;

  std::vector<VecD> starts;
  for (int k = 1; k <= kMspStarts; ++k) {
    std::vector<GridD> x0;
    for (const auto& l : fill_ext.layers) {
      GridD g = l.slack;
      for (auto& v : g) v *= 0.2 * k;
      x0.push_back(std::move(g));
    }
    starts.push_back(problem.flatten(x0));
  }
  const ObjectiveFn obj = make_network_objective(problem, fill_net);
  MspOptions mo;
  mo.sqp.max_iterations = 6;
  MspOutcome drives[2];
  double msp_s[2] = {0.0, 0.0};
  const int msp_threads[2] = {1, 4};
  for (int t = 0; t < 2; ++t) {
    runtime::set_thread_count(msp_threads[t]);
    msp_s[t] = best_of(
        [&] { drives[t] = msp_sqp_minimize(obj, starts, problem.bounds(), mo); },
        kMspReps);
  }
  runtime::set_thread_count(0);
  for (std::size_t k = 0; k < drives[0].results.size(); ++k)
    if (drives[0].results[k].x != drives[1].results[k].x ||
        drives[0].results[k].function_evaluations !=
            drives[1].results[k].function_evaluations) {
      std::fprintf(stderr, "MSP drive differs between 1 and 4 threads\n");
      return 1;
    }
  const double msp_speedup = msp_s[0] / msp_s[1];

  std::printf("=== fill objective throughput, %dx%d windows, %zu layers, "
              "batch %d, 1 thread ===\n",
              kWindows, kWindows, layers, kBatch);
  std::printf("serial batch-1 loop:  %10.1f evals/s\n", serial_eps);
  std::printf("batched evaluate:     %10.1f evals/s\n", batched_eps);
  std::printf("batching speedup:     %10.2fx\n", speedup);
  std::printf("value+gradient call:  %10.3f ms\n", grad_ms);
  std::printf("=== %dx%d windows ===\n", kFillWindows, kFillWindows);
  std::printf("value+gradient call:  %10.3f ms (1 thread)\n", grad24_ms);
  std::printf("%d-start MSP drive:    %10.3f s at 1 thread, %.3f s at 4 "
              "(%.2fx)\n",
              kMspStarts, msp_s[0], msp_s[1], msp_speedup);

  char json[384];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"fill_throughput\",\"fill_evals_per_s\":%.1f,"
                "\"fill_evals_per_s_serial\":%.1f,"
                "\"fill_batch_speedup\":%.3f,\"sqp_grad_ms\":%.3f,"
                "\"sqp_grad_ms_24w\":%.3f,\"msp_ms_1t\":%.1f,"
                "\"msp_ms_4t\":%.1f,\"msp_speedup_4t\":%.3f}",
                batched_eps, serial_eps, speedup, grad_ms, grad24_ms,
                msp_s[0] * 1e3, msp_s[1] * 1e3, msp_speedup);
  std::printf("\nJSON: %s\n", json);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }
  return 0;
}
