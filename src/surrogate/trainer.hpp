#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/deadline.hpp"
#include "surrogate/cmp_network.hpp"
#include "surrogate/datagen.hpp"

namespace neurfill {

struct TrainOptions {
  int epochs = 4;
  int samples_per_epoch = 200;
  /// When positive, a fixed dataset of this many samples is generated once
  /// and epochs iterate over it in shuffled order (the paper's regime:
  /// 20 000 layouts x 20 epochs).  When zero, every sample is drawn fresh
  /// (pure online learning).
  int dataset_size = 0;
  std::size_t grid_rows = 64;  ///< training layout size (paper: 100x100)
  std::size_t grid_cols = 64;
  float learning_rate = 2e-3f;
  float lr_decay = 0.9f;      ///< learning-rate multiplier per epoch
  int grad_accumulation = 2;  ///< samples per optimizer step
  int calibration_samples = 4;  ///< used to fit the height normalization
  std::uint64_t seed = 1;
  bool verbose = false;
  /// When non-empty, the surrogate is checkpointed (save_surrogate) to this
  /// prefix after every epoch, plus a `<prefix>.train` optimizer-state
  /// checkpoint, so long trainings are interruption-safe.
  std::string checkpoint_prefix;
  /// Resume an interrupted training from `<prefix>.train` (epoch-granular;
  /// requires checkpoint_prefix and the fixed-dataset regime,
  /// dataset_size > 0, so the replayed dataset is deterministic).  A
  /// missing, corrupt, or mismatched checkpoint logs a warning and trains
  /// from scratch.
  bool resume = false;
  /// When set, training stops after the current sample once *interrupt is
  /// true (e.g. from a SIGINT handler); the last checkpoint stays valid.
  const std::atomic<bool>* interrupt = nullptr;
  /// Wall-clock budget; when it expires training stops after the current
  /// sample and stats.timed_out is set.
  Deadline deadline;
};

struct TrainStats {
  std::vector<double> epoch_loss;  ///< mean normalized MSE per epoch
  double final_loss = 0.0;
  int samples_seen = 0;
  int start_epoch = 0;       ///< first epoch actually run (>0 after resume)
  bool interrupted = false;  ///< stopped early by options.interrupt
  bool timed_out = false;    ///< stopped early by options.deadline
};

/// Pre-training of the UNet (Section IV-F, Eq. 20): minimizes the MSE
/// between the network's height prediction and the simulator's label over
/// two-step-random generated layouts.  Also calibrates the surrogate's
/// height normalization (offset/scale) from a few samples before training.
/// Each sample runs one teacher-forced pass and one reverse pass through
/// the compiled session (SurrogateInference) and Adam updates the flat
/// parameter set in place; samples run serially, and the weights are
/// bitwise identical at any thread count.
TrainStats train_surrogate(CmpSurrogate& surrogate,
                           TrainingDataGenerator& datagen,
                           const TrainOptions& options = TrainOptions());

}  // namespace neurfill
