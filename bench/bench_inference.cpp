// Inference fast-path benchmark: single-thread UNet forward latency of the
// compiled InferenceSession vs the autograd module path, on the surrogate's
// production shape (7 input channels, base 8, depth 3, 64x64 windows).
//
// Also sweeps batched session runs (B = 1, 4, 16 printed; B = 8 gated):
// one run() call carries all B candidate samples, so per-call dispatch,
// GEMM panel packing, and epilogue setup amortize across the batch.  The
// gated key is per-sample latency at the fill loop's batch size.
//
// Also times the session's input VJP on the production architecture (group
// norm on): one run_saving() + vjp() pass — what one layer of a fill
// gradient costs — against the autograd tape's forward + backward.
//
// Emits a one-line JSON summary; --json FILE writes the same object for CI
// (tools/check_bench_regression.py gates unet_infer_ms_1t,
// infer_vs_autograd_speedup — the redesign's acceptance is >= 2x —
// unet_infer_b8_ms_per_sample, which must stay below batch-1 latency, and
// unet_vjp_ms_1t).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"
#include "nn/infer/session.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/features.hpp"
#include "tape/ops.hpp"
#include "tape/tensor.hpp"
#include "tape/unet.hpp"

namespace {

using namespace neurfill;

constexpr int kHeight = 64, kWidth = 64;
constexpr int kReps = 31;

// Best-of-reps: the minimum is the classic noise-robust statistic for a
// deterministic microbenchmark — scheduler preemptions and frequency dips
// only ever inflate a sample, so the floor tracks the code, not the VM.
double best_ms(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end()) * 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
      json_path = argv[++i];

  nn::UNetConfig cfg;
  cfg.in_channels = FeatureConstants::kInChannels;
  cfg.out_channels = 1;
  cfg.base_channels = 8;
  cfg.depth = 3;
  Rng rng(21);
  nn::UNet net(cfg, rng);
  const auto params =
      std::make_shared<const nn::ParameterSet>(nn::to_parameter_set(net));
  const nn::InferenceSession session(cfg, params, kHeight, kWidth);

  std::vector<float> input(
      static_cast<std::size_t>(cfg.in_channels) * kHeight * kWidth);
  for (auto& v : input) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> output(static_cast<std::size_t>(kHeight) * kWidth);

  runtime::set_thread_count(1);

  // Autograd module path: tensor wrap + tape-building forward, the cost the
  // fill inner loop paid per evaluation before the redesign.
  const auto run_autograd = [&] {
    const nn::Tensor x = nn::Tensor::from_data(
        {1, cfg.in_channels, kHeight, kWidth}, input);
    const nn::Tensor y = net.forward(x);
    output[0] = y.data()[0];
  };
  const auto run_infer = [&] { session.run(input.data(), output.data()); };

  run_autograd();
  run_infer();  // warm-up (arena growth, packing buffers)
  std::vector<double> auto_s(kReps), infer_s(kReps);
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    run_autograd();
    auto_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
  }
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    run_infer();
    infer_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
  }
  runtime::set_thread_count(0);

  // Batched sweep: one compiled session planned for the largest batch, fed
  // with B copies of the same sample so every size reuses warm buffers.
  constexpr int kBatches[] = {1, 4, 8, 16};
  constexpr int kMaxBatch = 16;
  nn::InferenceOptions bopts;
  bopts.max_batch = kMaxBatch;
  const nn::InferenceSession bsession(cfg, params, kHeight, kWidth, bopts);
  std::vector<float> binput(input.size() * kMaxBatch);
  for (int b = 0; b < kMaxBatch; ++b)
    std::copy(input.begin(), input.end(),
              binput.begin() + static_cast<std::ptrdiff_t>(b) *
                                   static_cast<std::ptrdiff_t>(input.size()));
  std::vector<float> boutput(output.size() * kMaxBatch);
  double batch_ms[std::size(kBatches)] = {};
  for (std::size_t bi = 0; bi < std::size(kBatches); ++bi) {
    const int B = kBatches[bi];
    runtime::set_thread_count(1);
    bsession.run(binput.data(), boutput.data(), B);  // warm-up at this size
    std::vector<double> bs(kReps);
    for (int r = 0; r < kReps; ++r) {
      Timer t;
      bsession.run(binput.data(), boutput.data(), B);
      bs[static_cast<std::size_t>(r)] = t.elapsed_seconds();
    }
    batch_ms[bi] = best_ms(bs) / B;
  }
  runtime::set_thread_count(0);

  // Input VJP: session forward-with-saving + reverse pass vs the tape.
  nn::UNetConfig gn_cfg = cfg;
  gn_cfg.use_group_norm = true;
  nn::UNet gn_net(gn_cfg, rng);
  const nn::InferenceSession gn_session(
      gn_cfg,
      std::make_shared<const nn::ParameterSet>(nn::to_parameter_set(gn_net)),
      kHeight, kWidth);
  const std::vector<float> d_output(output.size(), 1.0f / kHeight);
  std::vector<float> d_input(input.size());
  nn::InferenceSession::SavedActivations saved;
  const auto run_vjp = [&] {
    gn_session.run_saving(input.data(), output.data(), saved);
    gn_session.vjp(saved, d_output.data(), d_input.data());
  };
  const auto run_tape = [&] {
    const nn::Tensor x = nn::Tensor::from_data(
        {1, cfg.in_channels, kHeight, kWidth}, input, true);
    const nn::Tensor dy =
        nn::Tensor::from_data({1, 1, kHeight, kWidth}, d_output);
    nn::sum(nn::mul(gn_net.forward(x), dy)).backward();
    d_input[0] = x.grad()[0];
  };
  runtime::set_thread_count(1);
  run_vjp();
  run_tape();
  std::vector<double> vjp_s(kReps), tape_s(kReps);
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    run_vjp();
    vjp_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
  }
  for (int r = 0; r < kReps; ++r) {
    Timer t;
    run_tape();
    tape_s[static_cast<std::size_t>(r)] = t.elapsed_seconds();
  }
  runtime::set_thread_count(0);
  const double vjp_ms = best_ms(vjp_s);
  const double tape_ms = best_ms(tape_s);

  const double auto_ms = best_ms(auto_s);
  const double infer_ms = best_ms(infer_s);
  const double speedup = auto_ms / infer_ms;
  const double b8_ms = batch_ms[2];
  std::printf("=== UNet forward %dch base%d depth%d %dx%d, 1 thread ===\n",
              cfg.in_channels, cfg.base_channels, cfg.depth, kHeight, kWidth);
  std::printf("autograd module path: %8.3f ms\n", auto_ms);
  std::printf("inference session:    %8.3f ms\n", infer_ms);
  std::printf("speedup:              %8.2fx  (session graph: %zu nodes, "
              "arena %zu KiB)\n",
              speedup, session.node_count(),
              session.arena_floats_per_sample() * sizeof(float) / 1024);
  for (std::size_t bi = 0; bi < std::size(kBatches); ++bi)
    std::printf("batched run B=%-2d:     %8.3f ms/sample\n", kBatches[bi],
                batch_ms[bi]);
  std::printf("input VJP (group norm): session %.3f ms, tape forward+"
              "backward %.3f ms, %.2fx\n",
              vjp_ms, tape_ms, tape_ms / vjp_ms);

  char json[512];
  std::snprintf(json, sizeof(json),
                "{\"bench\":\"inference\",\"unet_autograd_ms_1t\":%.3f,"
                "\"unet_infer_ms_1t\":%.3f,"
                "\"infer_vs_autograd_speedup\":%.3f,"
                "\"unet_infer_b8_ms_per_sample\":%.3f,"
                "\"unet_vjp_ms_1t\":%.3f}",
                auto_ms, infer_ms, speedup, b8_ms, vjp_ms);
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
