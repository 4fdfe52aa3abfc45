#include "fill/pipeline.hpp"

#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/log.hpp"
#include "surrogate/datagen.hpp"
#include "surrogate/trainer.hpp"

namespace neurfill {

namespace {

// The reduced quick-train surrogate.  Its fixed seeds (and the deterministic
// pool) make every training on one extraction give the same weights.
constexpr int kQuickBaseChannels = 8;
constexpr int kQuickDepth = 2;
constexpr std::uint64_t kQuickInitSeed = 5;
constexpr std::uint64_t kQuickDataSeed = 17;
constexpr std::size_t kQuickDataBlock = 4;
constexpr int kQuickEpochs = 6;
constexpr int kQuickDatasetSize = 60;

}  // namespace

FillProblem make_fill_problem(const Layout& layout, const ExtractOptions& eopt,
                              CmpProcessParams process) {
  WindowExtraction ext = extract_windows(layout, eopt);
  process.window_um = eopt.window_um;
  CmpSimulator sim(process);
  ScoreCoefficients coeffs = make_coefficients(layout, ext, sim);
  return FillProblem(std::move(ext), std::move(sim), std::move(coeffs));
}

[[nodiscard]] Expected<std::shared_ptr<CmpSurrogate>> load_or_quick_train(
    const std::string& prefix, const WindowExtraction& ext,
    const CmpSimulator& sim) {
  Expected<std::shared_ptr<CmpSurrogate>> loaded = load_surrogate(prefix);
  if (loaded.ok() || loaded.error().code != ErrorCode::kNotFound)
    return loaded;
  LOG_WARN("fill.pipeline: no surrogate at '%s'; training a reduced one",
           prefix.c_str());
  SurrogateConfig cfg;
  cfg.unet.base_channels = kQuickBaseChannels;
  cfg.unet.depth = kQuickDepth;
  auto surrogate = std::make_shared<CmpSurrogate>(cfg, kQuickInitSeed);
  TrainingDataGenerator gen({ext}, sim, kQuickDataSeed, kQuickDataBlock);
  TrainOptions opt;
  opt.epochs = kQuickEpochs;
  opt.dataset_size = kQuickDatasetSize;
  opt.grid_rows = ext.rows;
  opt.grid_cols = ext.cols;
  train_surrogate(*surrogate, gen, opt);
  return surrogate;
}

bool fill_method_needs_surrogate(const std::string& method) {
  return method == "pkb" || method == "mm";
}

FillRunResult run_fill_method(
    const FillProblem& problem, const std::string& method,
    const std::shared_ptr<const CmpSurrogate>& surrogate,
    NeurFillOptions options, int sqp_max_iterations) {
  if (method == "lin") return lin_rule_fill(problem);
  if (method == "tao") {
    TaoOptions topt;
    topt.sqp.deadline = options.deadline;
    if (sqp_max_iterations > 0) topt.sqp.max_iterations = sqp_max_iterations;
    return tao_rule_sqp(problem, topt);
  }
  if (method == "cai") {
    CaiOptions copt;
    copt.sqp.deadline = options.deadline;
    if (sqp_max_iterations > 0) copt.sqp.max_iterations = sqp_max_iterations;
    return cai_model_fill(problem, copt);
  }
  if (!fill_method_needs_surrogate(method))
    throw ErrorException(Error(ErrorCode::kInvalidArgument, "fill.pipeline",
                               "unknown method '" + method +
                                   "' (expected lin|tao|cai|pkb|mm)"));
  if (!surrogate)
    throw ErrorException(Error(ErrorCode::kInvalidArgument, "fill.pipeline",
                               "method '" + method + "' needs a surrogate"));
  CmpNetwork network(surrogate, problem.extraction(), problem.coefficients());
  calibrate_network(network, problem);
  if (sqp_max_iterations > 0) options.sqp.max_iterations = sqp_max_iterations;
  return method == "pkb" ? neurfill_pkb(problem, network, options)
                         : neurfill_mm(problem, network, options);
}

}  // namespace neurfill
