// Pre-trains the CMP surrogate (Section IV-F of the paper) and saves the
// artifact.  This is both a runnable example of the training API and the
// producer of the cached weights the benchmarks load.
//
// Usage:
//   train_surrogate [out_prefix] [grid] [dataset] [epochs] [seed]
//                   [--threads N] [--resume]
//
// Defaults reproduce the repository's cached artifact: sources are Designs A
// and B (Design C is held out for the extension-ability experiment of
// Section V-A), 32x32 training layouts assembled by the two-step random
// procedure of Fig. 8.
//
// Training checkpoints after every epoch (<prefix>.{meta,weights,train});
// SIGINT/SIGTERM stop after the current sample with the last completed
// epoch durable on disk (exit 128+signal), and `--resume` continues from
// it.

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/log.hpp"
#include "common/timer.hpp"
#include "geom/designs.hpp"
#include "layout/window_grid.hpp"
#include "runtime/parallel.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/eval.hpp"
#include "surrogate/trainer.hpp"

namespace {
std::atomic<bool> g_interrupt{false};
std::atomic<int> g_signal{0};
void handle_signal(int sig) {
  g_signal.store(sig);
  g_interrupt.store(true);
}
}  // namespace

int main(int argc, char** argv) {
  using namespace neurfill;
  set_log_level(LogLevel::kInfo);

  // Split flags off; the remaining arguments are positional.
  bool resume = false;
  std::vector<const char*> pos;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      runtime::set_thread_count(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else {
      pos.push_back(argv[i]);
    }
  }
  const std::size_t n = pos.size();
  const std::string out = n > 0 ? pos[0] : "data/unet_cmp";
  const std::size_t grid = n > 1 ? std::strtoul(pos[1], nullptr, 10) : 32;
  const int dataset = n > 2 ? std::atoi(pos[2]) : 400;
  const int epochs = n > 3 ? std::atoi(pos[3]) : 20;
  const std::uint64_t seed = n > 4 ? std::strtoull(pos[4], nullptr, 10) : 7;

  std::printf("== NeurFill surrogate pre-training ==\n");
  std::printf("sources: designs A+B at %zux%zu windows (C held out); "
              "threads=%d\n",
              grid, grid, runtime::thread_count());

  const int windows = static_cast<int>(grid);
  const Layout design_a = make_design('a', windows, 100.0, 11);
  const Layout design_b = make_design('b', windows, 100.0, 12);
  std::vector<WindowExtraction> sources{extract_windows(design_a),
                                        extract_windows(design_b)};
  CmpSimulator simulator;  // calibrated default process
  TrainingDataGenerator datagen(std::move(sources), simulator, seed);

  SurrogateConfig config;  // UNet base 8, depth 3, group norm
  CmpSurrogate surrogate(config, seed);
  std::printf("UNet parameters: %zu\n", surrogate.parameters().numel());

  TrainOptions opt;
  opt.epochs = epochs;
  opt.dataset_size = dataset;
  opt.grid_rows = opt.grid_cols = grid;
  opt.learning_rate = 2e-3f;
  opt.lr_decay = 0.93f;
  opt.seed = seed;
  opt.verbose = true;
  opt.checkpoint_prefix = out;  // interruption-safe: save every epoch
  opt.resume = resume;          // continue from <out>.train when present
  opt.interrupt = &g_interrupt;
  // SIGTERM and SIGINT share one checkpoint-consistent path: stop after
  // the current sample, leave the last completed epoch durable, exit
  // 128+signal (130 for SIGINT, 143 for SIGTERM — docs/robustness.md).
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  Timer timer;
  const TrainStats stats = train_surrogate(surrogate, datagen, opt);
  if (stats.start_epoch > 0)
    std::printf("resumed after epoch %d\n", stats.start_epoch);
  std::printf("trained %d samples in %.1fs; final loss %.5f\n",
              stats.samples_seen, timer.elapsed_seconds(), stats.final_loss);

  if (stats.interrupted) {
    // The in-memory weights carry a partial epoch; the on-disk pair
    // (<out>.weights + <out>.train) is the consistent last-completed-epoch
    // state, so leave it untouched for --resume.
    std::printf("interrupted; last completed epoch is durable at %s "
                "(rerun with --resume)\n",
                out.c_str());
    const int sig = g_signal.load();
    return 128 + (sig > 0 ? sig : SIGINT);
  }

  Expected<void> saved = save_surrogate(surrogate, out);
  if (!saved.ok()) {
    std::fprintf(stderr, "error: %s\n", saved.error().to_string().c_str());
    return 1;
  }
  std::printf("saved surrogate to %s.{meta,weights}\n", out.c_str());

  // Quick held-out accuracy summary (full Fig. 9 reproduction lives in
  // bench_fig9_accuracy).
  const AccuracyReport rep =
      evaluate_surrogate_accuracy(surrogate, datagen, 10, grid, grid);
  std::printf("held-out: mean rel err %.2f%%, max window %.2f%%, %0.1f%% of "
              "windows below %.1f%%\n",
              100.0 * rep.mean_rel_error, 100.0 * rep.max_window_rel_error,
              100.0 * rep.frac_windows_below, 100.0 * rep.below_threshold);
  return 0;
}
