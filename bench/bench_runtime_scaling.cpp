// Runtime-subsystem scaling benchmark: throughput of the heaviest
// parallelized kernels — the packed GEMM (all three operand layouts), the
// conv2d forward/backward path that feeds it through im2col, and the
// elastic contact solver behind the high-fidelity CMP simulator — at
// 1/2/4/8 threads.
//
// The manual sweep prints a table plus a machine-readable JSON summary line
// (speedup_8t is what the acceptance check reads; >= 3x is expected on a
// host with >= 8 real cores, while a 1-core container reports ~1x since the
// pool degrades gracefully to near-serial execution).  google-benchmark then
// re-times the kernels at each thread count with statistical rigor.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "cmp/contact_solver.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "nn/gemm.hpp"
#include "runtime/parallel.hpp"
#include "tape/ops.hpp"

namespace {

using namespace neurfill;

constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct GemmProblem {
  static constexpr int M = 512, N = 512, K = 512;
  // 0 = nn, 1 = nt, 2 = tn.  All three operand layouts are 512x512, so one
  // buffer pair drives every variant.
  int variant = 0;
  std::vector<float> A, B, C;
  GemmProblem()
      : A(static_cast<std::size_t>(M) * K),
        B(static_cast<std::size_t>(K) * N),
        C(static_cast<std::size_t>(M) * N) {
    Rng rng(5);
    for (auto& x : A) x = static_cast<float>(rng.normal());
    for (auto& x : B) x = static_cast<float>(rng.normal());
  }
  void run() {
    switch (variant) {
      case 1: nn::gemm_nt(M, N, K, A.data(), B.data(), C.data(), false); break;
      case 2: nn::gemm_tn(M, N, K, A.data(), B.data(), C.data(), false); break;
      default: nn::gemm_nn(M, N, K, A.data(), B.data(), C.data(), false);
    }
  }
  static double flops() { return 2.0 * M * N * K; }
};

struct ConvProblem {
  // A UNet-encoder-sized layer: the shape the surrogate hot path actually
  // runs through conv2d -> im2col -> packed GEMM.
  static constexpr int N = 2, C = 16, H = 64, W = 64, O = 16, k = 3;
  bool backward;
  std::vector<float> xd, wd, bd;
  explicit ConvProblem(bool bwd)
      : backward(bwd),
        xd(static_cast<std::size_t>(N) * C * H * W),
        wd(static_cast<std::size_t>(O) * C * k * k),
        bd(static_cast<std::size_t>(O)) {
    Rng rng(7);
    for (auto& v : xd) v = static_cast<float>(rng.normal());
    for (auto& v : wd) v = static_cast<float>(rng.normal(0.0, 0.1));
    for (auto& v : bd) v = static_cast<float>(rng.normal());
  }
  void run() const {
    nn::Tensor x = nn::Tensor::from_data({N, C, H, W}, xd, backward);
    nn::Tensor w = nn::Tensor::from_data({O, C, k, k}, wd, backward);
    nn::Tensor b = nn::Tensor::from_data({O}, bd, backward);
    nn::Tensor y = nn::conv2d(x, w, b, /*stride=*/1, /*padding=*/1);
    if (backward) {
      nn::sum(y).backward();
      benchmark::DoNotOptimize(x.grad());
    }
    benchmark::DoNotOptimize(y.data());
  }
};

struct ContactProblem {
  static constexpr std::size_t R = 64, C = 64;
  GridD height{R, C, 0.0};
  ElasticContactSolver::Options opt;
  ContactProblem() {
    Rng rng(9);
    for (auto& h : height) h = rng.uniform(0.0, 80.0);
    opt.max_iterations = 40;
  }
  void run() const {
    ElasticContactSolver solver(R, C, opt);
    benchmark::DoNotOptimize(solver.solve(height, 1.5));
  }
};

/// Median-of-reps timing: robust against the occasional scheduler hiccup
/// that a mean would fold into the speedup ratios (on busy or 1-core hosts
/// a single preempted rep used to flip contact_speedup_4t across 1.0).
template <typename Problem>
double time_seconds(Problem& p, int reps) {
  p.run();  // warm-up (and first-use pool construction)
  std::vector<double> samples(static_cast<std::size_t>(reps));
  for (auto& s : samples) {
    Timer t;
    p.run();
    s = t.elapsed_seconds();
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

void print_scaling_summary(const std::string& json_path) {
  GemmProblem gemm;
  ContactProblem contact;
  ConvProblem conv_fwd(/*bwd=*/false);
  ConvProblem conv_fb(/*bwd=*/true);
  double gemm_s[4] = {}, contact_s[4] = {}, conv_f[4] = {}, conv_b[4] = {};
  double gemm_nt_1t = 0.0, gemm_tn_1t = 0.0;
  for (int i = 0; i < 4; ++i) {
    runtime::set_thread_count(kThreadCounts[i]);
    gemm_s[i] = time_seconds(gemm, 11);
    contact_s[i] = time_seconds(contact, 3);
    conv_f[i] = time_seconds(conv_fwd, 11);
    conv_b[i] = time_seconds(conv_fb, 11);
    if (i == 0) {
      gemm.variant = 1;
      gemm_nt_1t = time_seconds(gemm, 11);
      gemm.variant = 2;
      gemm_tn_1t = time_seconds(gemm, 11);
      gemm.variant = 0;
    }
  }
  runtime::set_thread_count(0);

  std::printf("\n=== Runtime scaling: GEMM %dx%dx%d, %zux%zu elastic "
              "contact solve, conv2d %dx%dx%dx%d k%d ===\n",
              GemmProblem::M, GemmProblem::N, GemmProblem::K,
              ContactProblem::R, ContactProblem::C, ConvProblem::N,
              ConvProblem::C, ConvProblem::H, ConvProblem::W, ConvProblem::k);
  std::printf("%-8s %13s %8s %12s %8s %12s %8s %13s %8s\n", "threads",
              "gemm GFLOP/s", "speedup", "contact ms", "speedup",
              "conv fwd ms", "speedup", "conv f+b ms", "speedup");
  for (int i = 0; i < 4; ++i)
    std::printf("%-8d %13.2f %8.2f %12.2f %8.2f %12.2f %8.2f %13.2f %8.2f\n",
                kThreadCounts[i], GemmProblem::flops() / gemm_s[i] * 1e-9,
                gemm_s[0] / gemm_s[i], contact_s[i] * 1e3,
                contact_s[0] / contact_s[i], conv_f[i] * 1e3,
                conv_f[0] / conv_f[i], conv_b[i] * 1e3,
                conv_b[0] / conv_b[i]);
  std::printf("gemm variants @1t: nn %.2f  nt %.2f  tn %.2f GFLOP/s\n",
              GemmProblem::flops() / gemm_s[0] * 1e-9,
              GemmProblem::flops() / gemm_nt_1t * 1e-9,
              GemmProblem::flops() / gemm_tn_1t * 1e-9);

  // One-line JSON for scripted consumption; --json FILE writes the same
  // object to a file (CI publishes it as BENCH_runtime.json and the
  // perf-smoke job gates on gemm_gflops_1t / gemm_speedup_4t).
  char json[1024];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"runtime_scaling\","
                "\"gemm_gflops_1t\":%.3f,\"gemm_speedup_2t\":%.3f,"
                "\"gemm_speedup_4t\":%.3f,\"gemm_speedup_8t\":%.3f,"
                "\"gemm_nt_gflops_1t\":%.3f,\"gemm_tn_gflops_1t\":%.3f,"
                "\"contact_ms_1t\":%.3f,\"contact_speedup_2t\":%.3f,"
                "\"contact_speedup_4t\":%.3f,\"contact_speedup_8t\":%.3f,"
                "\"conv2d_fwd_ms_1t\":%.3f,\"conv2d_fwd_speedup_4t\":%.3f,"
                "\"conv2d_fwdbwd_ms_1t\":%.3f,"
                "\"conv2d_fwdbwd_speedup_4t\":%.3f}",
                GemmProblem::flops() / gemm_s[0] * 1e-9, gemm_s[0] / gemm_s[1],
                gemm_s[0] / gemm_s[2], gemm_s[0] / gemm_s[3],
                GemmProblem::flops() / gemm_nt_1t * 1e-9,
                GemmProblem::flops() / gemm_tn_1t * 1e-9,
                contact_s[0] * 1e3, contact_s[0] / contact_s[1],
                contact_s[0] / contact_s[2], contact_s[0] / contact_s[3],
                conv_f[0] * 1e3, conv_f[0] / conv_f[2], conv_b[0] * 1e3,
                conv_b[0] / conv_b[2]);
  std::printf("\nJSON: %s\n\n", json);
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      std::exit(1);
    }
    std::fprintf(f, "%s\n", json);
    std::fclose(f);
  }
}

void BM_GemmAtThreads(benchmark::State& state) {
  runtime::set_thread_count(static_cast<int>(state.range(0)));
  GemmProblem gemm;
  for (auto _ : state) {
    gemm.run();
    benchmark::DoNotOptimize(gemm.C.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      GemmProblem::flops() * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
  runtime::set_thread_count(0);
}
BENCHMARK(BM_GemmAtThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ContactSolveAtThreads(benchmark::State& state) {
  runtime::set_thread_count(static_cast<int>(state.range(0)));
  ContactProblem contact;
  for (auto _ : state) contact.run();
  runtime::set_thread_count(0);
}
BENCHMARK(BM_ContactSolveAtThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Pre-scan for --json FILE (google-benchmark would reject the flag).
  std::string json_path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  print_scaling_summary(json_path);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
