#include "serve/runner.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>
#include <utility>

#include "common/checkpoint.hpp"
#include "common/fault.hpp"
#include "common/log.hpp"
#include "fill/neurfill.hpp"
#include "geom/glf_io.hpp"
#include "layout/fill_insertion.hpp"
#include "obs/metrics.hpp"
#include "surrogate/trainer.hpp"

namespace neurfill::serve {
namespace {

/// FNV-1a over the file's bytes; 0 when the file cannot be read (callers
/// treat that as a mandatory cache miss).
std::uint64_t fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  std::uint64_t h = 1469598103934665603ull;
  char buf[4096];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    const std::streamsize n = in.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;
    }
    if (n < static_cast<std::streamsize>(sizeof(buf))) break;
  }
  return h;
}

bool known_method(const std::string& m) {
  return m == "lin" || m == "tao" || m == "cai" || m == "pkb" || m == "mm";
}

}  // namespace

std::size_t JobRunner::surrogate_cache_size() const {
  std::lock_guard<std::mutex> lock(cache_m_);
  return cache_.size();
}

[[nodiscard]] Expected<std::shared_ptr<CmpSurrogate>> JobRunner::surrogate_for(
    const std::string& prefix, const WindowExtraction& ext,
    const CmpSimulator& sim) {
  const std::string weights = prefix + ".weights";
  struct stat st{};
  const bool on_disk = ::stat(weights.c_str(), &st) == 0;
  // Quick-trained fallbacks are keyed per plane size: the training windows
  // follow the design's extraction grid.
  const std::string key =
      on_disk ? prefix
              : prefix + "#quicktrain:" + std::to_string(ext.rows) + "x" +
                    std::to_string(ext.cols);
  const std::int64_t mtime = on_disk ? static_cast<std::int64_t>(st.st_mtime)
                                     : 0;
  const std::uint64_t size = on_disk ? static_cast<std::uint64_t>(st.st_size)
                                     : 0;
  const std::uint64_t hash = on_disk ? fnv1a_file(weights) : 0;
  {
    std::lock_guard<std::mutex> lock(cache_m_);
    auto it = cache_.find(key);
    if (it != cache_.end() && it->second.mtime == mtime &&
        it->second.size == size && it->second.hash == hash &&
        (!on_disk || hash != 0)) {
      NF_COUNTER_ADD("serve.surrogate_cache_hits", 1);
      return it->second.surrogate;
    }
  }
  NF_COUNTER_ADD("serve.surrogate_cache_misses", 1);

  std::shared_ptr<CmpSurrogate> surrogate;
  Expected<std::shared_ptr<CmpSurrogate>> loaded = load_surrogate(prefix);
  if (loaded.ok()) {
    surrogate = std::move(*loaded);
  } else if (loaded.error().code != ErrorCode::kNotFound) {
    // Present but unreadable/corrupt weights are a hard input error.
    return loaded.error();
  } else {
    // The documented quick-train fallback: a reduced surrogate trained on
    // the fly, deterministic (fixed seed + the deterministic pool), so
    // every daemon restart re-derives the same weights.
    LOG_WARN("serve.runner: no surrogate at '%s'; training a reduced one",
             prefix.c_str());
    SurrogateConfig cfg;
    cfg.unet.base_channels = 8;
    cfg.unet.depth = 2;
    surrogate = std::make_shared<CmpSurrogate>(cfg, 5);
    TrainingDataGenerator gen({ext}, sim, 17, 4);
    TrainOptions opt;
    opt.epochs = opts_.quicktrain_epochs;
    opt.dataset_size = opts_.quicktrain_dataset;
    opt.grid_rows = ext.rows;
    opt.grid_cols = ext.cols;
    train_surrogate(*surrogate, gen, opt);
  }
  std::lock_guard<std::mutex> lock(cache_m_);
  cache_[key] = CachedSurrogate{mtime, size, hash, surrogate};
  return surrogate;
}

[[nodiscard]] Expected<JobOutcome> JobRunner::run(const JobRecord& rec,
                                    const Deadline& deadline,
                                    const std::string& snapshot_path,
                                    const std::atomic<bool>* interrupt) {
  if (NF_FAULT("serve.worker_crash"))
    return Error(ErrorCode::kIo, "serve.runner",
                 "injected worker crash on job " + rec.id);
  const JobSpec& spec = rec.spec;
  if (!known_method(spec.method))
    return Error(ErrorCode::kInvalidArgument, "serve.runner",
                 "unknown method '" + spec.method +
                     "' (expected lin|tao|cai|pkb|mm)");
  try {
    Layout layout = read_glf_file(spec.design);
    ExtractOptions eopt;
    eopt.window_um = spec.window_um;
    const WindowExtraction ext = extract_windows(layout, eopt);
    CmpProcessParams params;
    params.window_um = eopt.window_um;
    CmpSimulator sim(params);
    const ScoreCoefficients coeffs = make_coefficients(layout, ext, sim);
    FillProblem problem(ext, sim, coeffs);

    FillRunResult result;
    if (spec.method == "lin") {
      result = lin_rule_fill(problem);
    } else if (spec.method == "tao") {
      TaoOptions topt;
      topt.sqp.deadline = deadline;
      if (opts_.sqp_max_iterations > 0)
        topt.sqp.max_iterations = opts_.sqp_max_iterations;
      result = tao_rule_sqp(problem, topt);
    } else if (spec.method == "cai") {
      CaiOptions copt;
      copt.sqp.deadline = deadline;
      if (opts_.sqp_max_iterations > 0)
        copt.sqp.max_iterations = opts_.sqp_max_iterations;
      result = cai_model_fill(problem, copt);
    } else {  // pkb or mm
      const std::string prefix =
          spec.surrogate.empty() ? opts_.default_surrogate : spec.surrogate;
      Expected<std::shared_ptr<CmpSurrogate>> surrogate =
          surrogate_for(prefix, ext, sim);
      if (!surrogate.ok()) return surrogate.error();
      CmpNetwork network(*surrogate, ext, coeffs);
      calibrate_network(network, problem);
      NeurFillOptions nopt;
      nopt.deadline = deadline;
      nopt.snapshot_path = snapshot_path;
      nopt.snapshot_every = opts_.snapshot_every;
      nopt.interrupt = interrupt;
      if (opts_.sqp_max_iterations > 0)
        nopt.sqp.max_iterations = opts_.sqp_max_iterations;
      if (opts_.pkb_steps > 0) nopt.pkb_steps = opts_.pkb_steps;
      if (opts_.nmmso_max_evaluations > 0)
        nopt.nmmso.max_evaluations = opts_.nmmso_max_evaluations;
      if (opts_.mm_starts > 0) nopt.mm_starts = opts_.mm_starts;
      if (!snapshot_path.empty()) {
        // Resume from an earlier attempt's snapshot when one exists; a
        // snapshot that fails CRC validation is quarantined and the solve
        // restarts fresh — deterministically, so the artifact is still
        // byte-identical to an uninterrupted run.
        struct stat st{};
        if (::stat(snapshot_path.c_str(), &st) == 0) {
          Expected<CheckpointReader> probe =
              CheckpointReader::open(snapshot_path);
          if (probe.ok()) {
            nopt.resume = true;
          } else {
            LOG_WARN("serve.runner: snapshot '%s' is corrupt (%s); "
                     "re-solving job %s from scratch",
                     snapshot_path.c_str(),
                     probe.error().to_string().c_str(), rec.id.c_str());
            std::remove(snapshot_path.c_str());
          }
        }
      }
      result = spec.method == "pkb" ? neurfill_pkb(problem, network, nopt)
                                    : neurfill_mm(problem, network, nopt);
    }

    JobOutcome outcome;
    outcome.dummies = insert_dummies(layout, ext, result.x);
    write_glf_file(spec.out, layout);
    outcome.runtime_s = result.runtime_s;
    outcome.evaluations = result.objective_evaluations;
    outcome.timed_out = result.timed_out;
    outcome.degraded = result.degraded;
    return outcome;
  } catch (const ErrorException& e) {
    return e.err;
  } catch (const std::exception& e) {
    return Error(ErrorCode::kIo, "serve.runner",
                 std::string("unstructured failure: ") + e.what());
  }
}

}  // namespace neurfill::serve
