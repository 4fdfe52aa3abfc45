#pragma once

// Job execution for the nf_serve daemon: one JobRecord in, one fill
// artifact out (docs/serving.md).
//
// The runner mirrors the nf_fill tool path — read GLF, extract windows,
// solve with the requested method, insert dummies, write the output
// atomically — with the daemon-grade robustness wrapped around it:
//  * pkb/mm solves snapshot to the journal-adjacent `<id>.snap` path and
//    *resume* from it, so a SIGKILL mid-attempt costs only the work since
//    the last snapshot and the restarted result is bitwise identical
//    (tests/serve_kill_restart_test.sh).  A snapshot that fails CRC
//    validation is quarantined (unlinked after a warning) and the solve
//    restarts fresh — deterministically, so the artifact is still
//    byte-identical to an uninterrupted run.
//  * Surrogate weights are cached across jobs keyed by (path, mtime, size,
//    content hash): a daemon serving many jobs against one frozen
//    surrogate loads and verifies it once, and an updated weight file on
//    disk naturally misses.  Counters: serve.surrogate_cache_hits/_misses.
//  * Every failure — missing design, corrupt weights, poisoned solve — is
//    returned as a structured nf::Error for the scheduler's retry policy;
//    nothing escapes as an uncaught exception.
//
// Fault site: `serve.worker_crash` fails an attempt at its start with a
// recoverable kIo error, exercising the retry/backoff path end to end.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cmp/simulator.hpp"
#include "common/deadline.hpp"
#include "common/error.hpp"
#include "serve/job.hpp"
#include "surrogate/cmp_network.hpp"

namespace neurfill::serve {

struct RunnerOptions {
  /// Surrogate weight prefix used when a job does not name one.
  std::string default_surrogate = "data/unet_cmp";
  int snapshot_every = 1;  ///< SQP iterations between mid-start snapshots
  /// Optimization budget overrides, 0 = library default.  Tests and the
  /// serve bench shrink these so a job takes milliseconds, not minutes.
  int sqp_max_iterations = 0;
  int pkb_steps = 0;
  int nmmso_max_evaluations = 0;
  int mm_starts = 0;
  /// Quick-train fallback budget when no surrogate exists on disk
  /// (mirrors nf_fill's reduced on-the-fly surrogate).
  int quicktrain_epochs = 6;
  int quicktrain_dataset = 60;
};

class JobRunner {
 public:
  explicit JobRunner(RunnerOptions options) : opts_(std::move(options)) {}

  /// Runs one attempt of `rec` to completion (blocking; internally
  /// parallel through the runtime pool).  `snapshot_path` is where a
  /// pkb/mm solve checkpoints and resumes; `interrupt`, when it flips
  /// true, checkpoints and returns kInterrupted (the drain path).
  [[nodiscard]] Expected<JobOutcome> run(const JobRecord& rec,
                                         const Deadline& deadline,
                                         const std::string& snapshot_path,
                                         const std::atomic<bool>* interrupt);

  /// Cache statistics (tests).
  std::size_t surrogate_cache_size() const;

 private:
  struct CachedSurrogate {
    std::int64_t mtime = 0;
    std::uint64_t size = 0;
    std::uint64_t hash = 0;  ///< FNV-1a over the .weights bytes
    std::shared_ptr<CmpSurrogate> surrogate;
  };

  /// Loads (or quick-trains) the surrogate for `prefix`, through the
  /// keyed cache.  `rows`/`cols` size the quick-train fallback.
  [[nodiscard]] Expected<std::shared_ptr<CmpSurrogate>> surrogate_for(
      const std::string& prefix, const WindowExtraction& ext,
      const CmpSimulator& sim);

  RunnerOptions opts_;
  mutable std::mutex cache_m_;
  std::map<std::string, CachedSurrogate> cache_;
};

}  // namespace neurfill::serve
