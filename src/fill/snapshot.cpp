#include "fill/snapshot.hpp"

#include <cstdint>

#include "common/checkpoint.hpp"

namespace neurfill {

namespace {

// Version 1: the serial drive's layout — a completed prefix of the start
// list ("completed") plus at most one start in flight ("sqp", and
// "sqp_schedule" for its call-schedule flag).  Version 2: one entry per
// start in a "slots" section, for tables a concurrent drive leaves with
// several starts in flight.
constexpr std::uint32_t kPrefixVersion = 1;
constexpr std::uint32_t kSlotVersion = 2;

// SqpResult flag bits.
constexpr std::uint32_t kFlagConverged = 1u << 0;
constexpr std::uint32_t kFlagTimedOut = 1u << 1;
constexpr std::uint32_t kFlagPoisoned = 1u << 2;

using Status = MspSlot::Status;

Error corrupt(const std::string& path, const std::string& what) {
  return Error(ErrorCode::kCorrupt, "fill.snapshot",
               "'" + path + "': " + what);
}

void put_result(ByteWriter& w, const SqpResult& r) {
  w.f64_vec(r.x);
  w.f64(r.f);
  w.u32(static_cast<std::uint32_t>(r.iterations));
  w.u32(static_cast<std::uint32_t>(r.function_evaluations));
  std::uint32_t flags = 0;
  if (r.converged) flags |= kFlagConverged;
  if (r.timed_out) flags |= kFlagTimedOut;
  if (r.poisoned) flags |= kFlagPoisoned;
  w.u32(flags);
  w.u32(static_cast<std::uint32_t>(r.numeric_recoveries));
}

void get_result(ByteReader& b, SqpResult& r) {
  r.x = b.f64_vec();
  r.f = b.f64();
  r.iterations = static_cast<int>(b.u32());
  r.function_evaluations = static_cast<int>(b.u32());
  const std::uint32_t flags = b.u32();
  r.converged = (flags & kFlagConverged) != 0;
  r.timed_out = (flags & kFlagTimedOut) != 0;
  r.poisoned = (flags & kFlagPoisoned) != 0;
  r.numeric_recoveries = static_cast<int>(b.u32());
}

/// The loop-top state without its call-schedule flag (version 1 keeps that
/// in a section of its own).
void put_state(ByteWriter& w, const SqpState& st) {
  w.f64_vec(st.x);
  w.f64_vec(st.g);
  w.f64(st.f);
  w.u32(static_cast<std::uint32_t>(st.iteration));
  w.u32(static_cast<std::uint32_t>(st.function_evaluations));
  w.f64(st.lbfgs_sigma);
  w.u32(static_cast<std::uint32_t>(st.lbfgs_pairs.size()));
  for (const auto& [sv, yv] : st.lbfgs_pairs) {
    w.f64_vec(sv);
    w.f64_vec(yv);
  }
}

void get_state(ByteReader& b, SqpState& st) {
  st.x = b.f64_vec();
  st.g = b.f64_vec();
  st.f = b.f64();
  st.iteration = static_cast<int>(b.u32());
  st.function_evaluations = static_cast<int>(b.u32());
  st.lbfgs_sigma = b.f64();
  const std::uint32_t n_pairs = b.u32();
  st.lbfgs_pairs.clear();
  for (std::uint32_t k = 0; k < n_pairs && b.ok(); ++k) {
    VecD sv = b.f64_vec();
    VecD yv = b.f64_vec();
    st.lbfgs_pairs.emplace_back(std::move(sv), std::move(yv));
  }
}

Status status_of(const FillSnapshot& snap, std::size_t i) {
  return i < snap.slots.size() ? snap.slots[i].status : Status::kPending;
}

/// Number of done starts when the table is a done prefix, at most one start
/// in flight, then pending starts (the version-1 shape); -1 otherwise.
long prefix_shape(const FillSnapshot& snap) {
  std::size_t i = 0;
  while (i < snap.starts.size() && status_of(snap, i) == Status::kDone) ++i;
  const long done = static_cast<long>(i);
  if (i < snap.starts.size() && status_of(snap, i) == Status::kInFlight) ++i;
  for (; i < snap.starts.size(); ++i)
    if (status_of(snap, i) != Status::kPending) return -1;
  return done;
}

void put_header(ByteWriter& meta, std::uint32_t version,
                const FillSnapshot& snap) {
  meta.u32(version);
  meta.str(snap.method);
  meta.u64(snap.dims);
  meta.i64(snap.evaluations);
  meta.u32(static_cast<std::uint32_t>(snap.starts.size()));
}

}  // namespace

[[nodiscard]] Expected<void> save_fill_snapshot(const FillSnapshot& snap,
                                  const std::string& path) {
  if (snap.slots.size() > snap.starts.size())
    return Error(ErrorCode::kInvalidArgument, "fill.snapshot",
                 "more slots than starts");
  CheckpointWriter w;
  ByteWriter meta;
  ByteWriter starts;
  for (const VecD& s : snap.starts) starts.f64_vec(s);

  const long done = prefix_shape(snap);
  if (done < 0) {
    put_header(meta, kSlotVersion, snap);
    w.add_section("meta", meta.take());
    w.add_section("starts", starts.take());
    ByteWriter slots;
    for (std::size_t i = 0; i < snap.starts.size(); ++i) {
      const Status st = status_of(snap, i);
      slots.u32(static_cast<std::uint32_t>(st));
      if (st == Status::kDone) {
        put_result(slots, snap.slots[i].result);
      } else if (st == Status::kInFlight) {
        put_state(slots, snap.slots[i].state);
        slots.u32(snap.slots[i].state.full_step_gradient ? 1u : 0u);
      }
    }
    w.add_section("slots", slots.take());
    return w.commit(path);
  }

  const std::size_t n_done = static_cast<std::size_t>(done);
  const bool in_flight = status_of(snap, n_done) == Status::kInFlight;
  put_header(meta, kPrefixVersion, snap);
  meta.u32(static_cast<std::uint32_t>(n_done));
  meta.u32(in_flight ? 1u : 0u);
  w.add_section("meta", meta.take());
  w.add_section("starts", starts.take());

  ByteWriter completed;
  for (std::size_t i = 0; i < n_done; ++i)
    put_result(completed, snap.slots[i].result);
  w.add_section("completed", completed.take());

  if (in_flight) {
    const SqpState& st = snap.slots[n_done].state;
    ByteWriter s;
    put_state(s, st);
    w.add_section("sqp", s.take());
    // Separate section so snapshots written before the full-step gradient
    // schedule still load (absent = ask, the first-iteration default).
    ByteWriter ls;
    ls.u32(st.full_step_gradient ? 1u : 0u);
    w.add_section("sqp_schedule", ls.take());
  }
  return w.commit(path);
}

[[nodiscard]] Expected<FillSnapshot> load_fill_snapshot(const std::string& path) {
  Expected<CheckpointReader> reader = CheckpointReader::open(path);
  if (!reader.ok()) return reader.error();
  for (const char* name : {"meta", "starts"})
    if (!reader->has_section(name))
      return corrupt(path, std::string("missing section '") + name + "'");

  FillSnapshot snap;
  ByteReader meta(**reader->section("meta"));
  const std::uint32_t version = meta.u32();
  snap.method = meta.str();
  snap.dims = static_cast<std::size_t>(meta.u64());
  snap.evaluations = static_cast<long>(meta.i64());
  const std::uint32_t n_starts = meta.u32();
  std::uint32_t n_completed = 0;
  bool has_sqp_state = false;
  if (version == kPrefixVersion) {
    n_completed = meta.u32();
    has_sqp_state = meta.u32() != 0;
  }
  if (!meta.ok() || !meta.at_end())
    return corrupt(path, "malformed 'meta' section");
  if (version != kPrefixVersion && version != kSlotVersion)
    return corrupt(path, "snapshot version " + std::to_string(version) +
                             " (supported: " + std::to_string(kPrefixVersion) +
                             ", " + std::to_string(kSlotVersion) + ")");
  if (n_completed + (has_sqp_state ? 1u : 0u) > n_starts)
    return corrupt(path, "more completed or in-flight starts than starts");

  ByteReader starts(**reader->section("starts"));
  snap.starts.resize(n_starts);
  for (auto& s : snap.starts) s = starts.f64_vec();
  if (!starts.ok() || !starts.at_end())
    return corrupt(path, "malformed 'starts' section");
  snap.slots.resize(n_starts);

  if (version == kSlotVersion) {
    if (!reader->has_section("slots"))
      return corrupt(path, "missing section 'slots'");
    ByteReader b(**reader->section("slots"));
    for (MspSlot& slot : snap.slots) {
      const std::uint32_t st = b.u32();
      if (!b.ok()) break;
      if (st == static_cast<std::uint32_t>(Status::kDone)) {
        slot.status = Status::kDone;
        get_result(b, slot.result);
      } else if (st == static_cast<std::uint32_t>(Status::kInFlight)) {
        slot.status = Status::kInFlight;
        get_state(b, slot.state);
        slot.state.full_step_gradient = b.u32() != 0;
      } else if (st != static_cast<std::uint32_t>(Status::kPending)) {
        return corrupt(path, "slot status " + std::to_string(st));
      }
    }
    if (!b.ok() || !b.at_end())
      return corrupt(path, "malformed 'slots' section");
    return snap;
  }

  if (!reader->has_section("completed"))
    return corrupt(path, "missing section 'completed'");
  ByteReader done(**reader->section("completed"));
  for (std::uint32_t i = 0; i < n_completed; ++i) {
    snap.slots[i].status = Status::kDone;
    get_result(done, snap.slots[i].result);
  }
  if (!done.ok() || !done.at_end())
    return corrupt(path, "malformed 'completed' section");

  if (has_sqp_state) {
    if (!reader->has_section("sqp"))
      return corrupt(path, "missing section 'sqp'");
    MspSlot& slot = snap.slots[n_completed];
    slot.status = Status::kInFlight;
    ByteReader s(**reader->section("sqp"));
    get_state(s, slot.state);
    if (!s.ok() || !s.at_end())
      return corrupt(path, "malformed 'sqp' section");
    if (reader->has_section("sqp_schedule")) {
      ByteReader ls(**reader->section("sqp_schedule"));
      slot.state.full_step_gradient = ls.u32() != 0;
      if (!ls.ok() || !ls.at_end())
        return corrupt(path, "malformed 'sqp_schedule' section");
    }
  }
  return snap;
}

}  // namespace neurfill
