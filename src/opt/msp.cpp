#include "opt/msp.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "runtime/parallel.hpp"

namespace neurfill {

namespace {
/// Thrown by a start's checkpoint hook to stop it at a loop top; caught by
/// the drive (sqp_minimize lets it through: it only catches its deadline).
struct StopAtLoopTop {};
}  // namespace

MspOutcome msp_sqp_minimize(const ObjectiveFn& f,
                            const std::vector<VecD>& starts, const Box& box,
                            const MspOptions& options,
                            std::vector<MspSlot> slots) {
  using Status = MspSlot::Status;
  const std::size_t n = starts.size();
  if (slots.size() > n)
    throw std::invalid_argument("msp_sqp_minimize: more slots than starts");
  slots.resize(n);

  // Guards every slot write, loop_tops and `skipped`, and serializes
  // on_update; a start reads its own slot without it (no one else writes
  // it).
  std::mutex mu;
  long loop_tops = 0;
  bool skipped = false;
  std::size_t first_open = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (slots[i].status == Status::kDone) {
      loop_tops += slots[i].result.iterations;
      continue;
    }
    if (slots[i].status == Status::kInFlight)
      loop_tops += slots[i].state.iteration;
    if (first_open == n) first_open = i;
  }

  const bool record = static_cast<bool>(options.on_update);
  const bool hooked = record || options.stop != nullptr;
  const auto stop_requested = [&options] {
    return options.stop != nullptr &&
           options.stop->load(std::memory_order_relaxed);
  };
  std::atomic<bool> stopped{false};

  const auto run_start = [&](std::size_t i) {
    if (slots[i].status == Status::kDone) return;
    const bool resuming = slots[i].status == Status::kInFlight;
    if (!resuming && i != first_open) {
      if (stop_requested()) {
        stopped.store(true);
        return;
      }
      if (options.sqp.deadline.expired()) {
        std::lock_guard<std::mutex> lock(mu);
        skipped = true;
        return;
      }
    }
    SqpOptions so = options.sqp;
    SqpState resume_state;
    if (resuming) resume_state = slots[i].state;
    so.resume = resuming ? &resume_state : nullptr;
    so.checkpoint_hook = nullptr;
    if (hooked) {
      so.checkpoint_hook = [&, i](const SqpState& st) {
        {
          std::lock_guard<std::mutex> lock(mu);
          if (record) {
            slots[i].status = Status::kInFlight;
            slots[i].state = st;
            options.on_update(slots, i, loop_tops);
          }
          ++loop_tops;
        }
        if (stop_requested()) throw StopAtLoopTop{};
      };
    }
    try {
      SqpResult r = sqp_minimize(f, starts[i], box, so);
      std::lock_guard<std::mutex> lock(mu);
      slots[i].status = Status::kDone;
      slots[i].state = SqpState();
      slots[i].result = std::move(r);
      if (record) options.on_update(slots, i, -1);
    } catch (const StopAtLoopTop&) {
      stopped.store(true);  // the slot keeps its loop-top state
    }
  };
  runtime::parallel_for(1, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) run_start(i);
  });

  MspOutcome out;
  for (const MspSlot& s : slots) {
    if (s.status != Status::kDone) continue;
    out.results.push_back(s.result);
    if (s.result.timed_out) out.timed_out = true;
  }
  out.timed_out = out.timed_out || skipped;
  out.stopped = stopped.load();
  std::sort(out.results.begin(), out.results.end(),
            [](const SqpResult& a, const SqpResult& b) { return a.f < b.f; });
  out.slots = std::move(slots);
  return out;
}

}  // namespace neurfill
