#include "fill/snapshot.hpp"

#include <cstdint>

#include "common/checkpoint.hpp"

namespace neurfill {

namespace {

constexpr std::uint32_t kVersion = 1;

// SqpResult flag bits in the "completed" section.
constexpr std::uint32_t kFlagConverged = 1u << 0;
constexpr std::uint32_t kFlagTimedOut = 1u << 1;
constexpr std::uint32_t kFlagPoisoned = 1u << 2;

Error corrupt(const std::string& path, const std::string& what) {
  return Error(ErrorCode::kCorrupt, "fill.snapshot",
               "'" + path + "': " + what);
}

}  // namespace

[[nodiscard]] Expected<void> save_fill_snapshot(const FillSnapshot& snap,
                                  const std::string& path) {
  CheckpointWriter w;
  ByteWriter meta;
  meta.u32(kVersion);
  meta.str(snap.method);
  meta.u64(snap.dims);
  meta.i64(snap.evaluations);
  meta.u32(static_cast<std::uint32_t>(snap.starts.size()));
  meta.u32(static_cast<std::uint32_t>(snap.completed.size()));
  meta.u32(snap.has_sqp_state ? 1u : 0u);
  w.add_section("meta", meta.take());

  ByteWriter starts;
  for (const VecD& s : snap.starts) starts.f64_vec(s);
  w.add_section("starts", starts.take());

  ByteWriter done;
  for (const SqpResult& r : snap.completed) {
    done.f64_vec(r.x);
    done.f64(r.f);
    done.u32(static_cast<std::uint32_t>(r.iterations));
    done.u32(static_cast<std::uint32_t>(r.function_evaluations));
    std::uint32_t flags = 0;
    if (r.converged) flags |= kFlagConverged;
    if (r.timed_out) flags |= kFlagTimedOut;
    if (r.poisoned) flags |= kFlagPoisoned;
    done.u32(flags);
    done.u32(static_cast<std::uint32_t>(r.numeric_recoveries));
  }
  w.add_section("completed", done.take());

  if (snap.has_sqp_state) {
    ByteWriter s;
    s.f64_vec(snap.sqp.x);
    s.f64_vec(snap.sqp.g);
    s.f64(snap.sqp.f);
    s.u32(static_cast<std::uint32_t>(snap.sqp.iteration));
    s.u32(static_cast<std::uint32_t>(snap.sqp.function_evaluations));
    s.f64(snap.sqp.lbfgs_sigma);
    s.u32(static_cast<std::uint32_t>(snap.sqp.lbfgs_pairs.size()));
    for (const auto& [sv, yv] : snap.sqp.lbfgs_pairs) {
      s.f64_vec(sv);
      s.f64_vec(yv);
    }
    w.add_section("sqp", s.take());
    // Separate section so snapshots written before the full-step gradient
    // schedule still load (absent = ask, the first-iteration default).
    ByteWriter ls;
    ls.u32(snap.sqp.full_step_gradient ? 1u : 0u);
    w.add_section("sqp_schedule", ls.take());
  }
  return w.commit(path);
}

[[nodiscard]] Expected<FillSnapshot> load_fill_snapshot(const std::string& path) {
  Expected<CheckpointReader> reader = CheckpointReader::open(path);
  if (!reader.ok()) return reader.error();
  for (const char* name : {"meta", "starts", "completed"})
    if (!reader->has_section(name))
      return corrupt(path, std::string("missing section '") + name + "'");

  FillSnapshot snap;
  ByteReader meta(**reader->section("meta"));
  const std::uint32_t version = meta.u32();
  snap.method = meta.str();
  snap.dims = static_cast<std::size_t>(meta.u64());
  snap.evaluations = static_cast<long>(meta.i64());
  const std::uint32_t n_starts = meta.u32();
  const std::uint32_t n_completed = meta.u32();
  snap.has_sqp_state = meta.u32() != 0;
  if (!meta.ok() || !meta.at_end())
    return corrupt(path, "malformed 'meta' section");
  if (version != kVersion)
    return corrupt(path, "snapshot version " + std::to_string(version) +
                             " (supported: " + std::to_string(kVersion) + ")");
  if (n_completed > n_starts)
    return corrupt(path, "more completed results than starts");

  ByteReader starts(**reader->section("starts"));
  snap.starts.resize(n_starts);
  for (auto& s : snap.starts) s = starts.f64_vec();
  if (!starts.ok() || !starts.at_end())
    return corrupt(path, "malformed 'starts' section");

  ByteReader done(**reader->section("completed"));
  snap.completed.resize(n_completed);
  for (auto& r : snap.completed) {
    r.x = done.f64_vec();
    r.f = done.f64();
    r.iterations = static_cast<int>(done.u32());
    r.function_evaluations = static_cast<int>(done.u32());
    const std::uint32_t flags = done.u32();
    r.converged = (flags & kFlagConverged) != 0;
    r.timed_out = (flags & kFlagTimedOut) != 0;
    r.poisoned = (flags & kFlagPoisoned) != 0;
    r.numeric_recoveries = static_cast<int>(done.u32());
  }
  if (!done.ok() || !done.at_end())
    return corrupt(path, "malformed 'completed' section");

  if (snap.has_sqp_state) {
    if (!reader->has_section("sqp"))
      return corrupt(path, "missing section 'sqp'");
    ByteReader s(**reader->section("sqp"));
    snap.sqp.x = s.f64_vec();
    snap.sqp.g = s.f64_vec();
    snap.sqp.f = s.f64();
    snap.sqp.iteration = static_cast<int>(s.u32());
    snap.sqp.function_evaluations = static_cast<int>(s.u32());
    snap.sqp.lbfgs_sigma = s.f64();
    const std::uint32_t n_pairs = s.u32();
    snap.sqp.lbfgs_pairs.resize(n_pairs);
    for (auto& [sv, yv] : snap.sqp.lbfgs_pairs) {
      sv = s.f64_vec();
      yv = s.f64_vec();
    }
    if (!s.ok() || !s.at_end())
      return corrupt(path, "malformed 'sqp' section");
    if (reader->has_section("sqp_schedule")) {
      ByteReader ls(**reader->section("sqp_schedule"));
      snap.sqp.full_step_gradient = ls.u32() != 0;
      if (!ls.ok() || !ls.at_end())
        return corrupt(path, "malformed 'sqp_schedule' section");
    }
  }
  return snap;
}

}  // namespace neurfill
