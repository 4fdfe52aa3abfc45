#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "cmp/simulator.hpp"
#include "fill/problem.hpp"
#include "geom/designs.hpp"
#include "geom/glf_io.hpp"
#include "layout/window_grid.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using namespace neurfill;

namespace {

std::map<std::string, double> self_times(
    const std::vector<obs::ThreadTrace>& threads) {
  std::map<std::string, double> totals;
  struct Open {
    std::uint64_t end;
    const char* name;
    double self_ns;
  };
  for (const obs::ThreadTrace& t : threads) {
    std::vector<obs::TraceEvent> events = t.events;
    // Parents first: by begin, the longer of two equal-begin spans first.
    std::sort(events.begin(), events.end(),
              [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns
                                                : a.end_ns > b.end_ns;
              });
    std::vector<Open> stack;
    auto close = [&totals](const Open& o) {
      totals[o.name] += o.self_ns * 1e-9;
    };
    for (const obs::TraceEvent& e : events) {
      while (!stack.empty() && stack.back().end <= e.begin_ns) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty())
        stack.back().self_ns -= static_cast<double>(
            std::min(e.end_ns, stack.back().end) - e.begin_ns);
      stack.push_back({e.end_ns, e.name,
                       static_cast<double>(e.end_ns - e.begin_ns)});
    }
    for (; !stack.empty(); stack.pop_back()) close(stack.back());
  }
  return totals;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::vector<Phase> phases_for(const Args& args) {
  if (!args.trace) return {{false, args.seconds}};
  return {{false, 0.5 * args.seconds}, {true, 0.5 * args.seconds}};
}

void TraceRecorder::start() {
  obs::reset_metrics();
  obs::reset_trace();
  self_s_.clear();
  dropped_ = 0.0;
  obs::set_metrics_enabled(true);
  obs::set_tracing_enabled(true);
}

void TraceRecorder::fold() {
  const std::vector<obs::ThreadTrace> threads = obs::trace_snapshot();
  for (const auto& [name, s] : self_times(threads)) self_s_[name] += s;
  for (const obs::ThreadTrace& t : threads)
    dropped_ += static_cast<double>(t.dropped);
}

void TraceRecorder::next_round() {
  fold();
  obs::reset_trace();
}

JsonValue TraceRecorder::finish(const std::string& trace_path, double rounds) {
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);
  fold();
  std::ofstream f(trace_path);
  obs::write_chrome_trace(f);

  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  JsonValue spans = obj();
  for (const auto& s : snap.spans) {
    JsonValue v = obj();
    v.object["count"] = num(static_cast<double>(s.count));
    v.object["total_s"] = num(s.total_s);
    spans.object[s.name] = std::move(v);
  }
  JsonValue counters = obj();
  for (const auto& c : snap.counters)
    counters.object[c.name] = num(static_cast<double>(c.value));
  JsonValue self = obj();
  for (const auto& [name, s] : self_s_) self.object[name] = num(s);

  JsonValue v = obj();
  v.object["rounds"] = num(rounds);
  v.object["spans"] = std::move(spans);
  v.object["self_s"] = std::move(self);
  v.object["counters"] = std::move(counters);
  v.object["dropped_events"] = num(dropped_);
  v.object["trace_file"] = str(f ? trace_path : "");
  return v;
}

IoCounters read_io() {
  IoCounters io;
  std::ifstream f("/proc/self/io");
  std::string key;
  double value = 0.0;
  while (f >> key >> value) {
    if (key == "wchar:") io.write_bytes = value;
    if (key == "syscw:") io.write_calls = value;
  }
  return io;
}

JsonValue phase_json(const Phase& phase, Clock::time_point t0,
                     const IoCounters& io0, double units) {
  const double elapsed = seconds_since(t0);
  const IoCounters io1 = read_io();
  JsonValue p = obj();
  p.object["traced"] = neurfill::serve::json_bool(phase.traced);
  p.object["elapsed_s"] = num(elapsed);
  p.object["units"] = num(units);
  p.object["io.write_bytes"] = num(io1.write_bytes - io0.write_bytes);
  p.object["io.write_calls"] = num(io1.write_calls - io0.write_calls);
  return p;
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return 0;
  std::uint64_t h = 1469598103934665603ull;
  char buf[1 << 16];
  while (f.read(buf, sizeof(buf)) || f.gcount() > 0) {
    for (std::streamsize i = 0; i < f.gcount(); ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ull;
    }
  }
  return h;
}

OutputCheck check_output(const Layout& input, const std::string& out_path,
                         std::size_t expected_dummies) {
  OutputCheck c;
  c.digest = file_digest(out_path);
  Layout out;
  try {
    out = read_glf_file(out_path);
  } catch (const std::exception& e) {
    c.error = out_path + ": not valid GLF: " + e.what();
    return c;
  }
  if (out.total_dummy_count() != expected_dummies) {
    c.error = out_path + ": " + std::to_string(out.total_dummy_count()) +
              " dummies, insertion returned " +
              std::to_string(expected_dummies);
    return c;
  }
  if (out.num_layers() != input.num_layers()) {
    c.error = out_path + ": layer count changed";
    return c;
  }
  for (std::size_t l = 0; l < out.num_layers(); ++l) {
    if (out.layers[l].wires.size() != input.layers[l].wires.size()) {
      c.error = out_path + ": design wires changed on layer " +
                std::to_string(l);
      return c;
    }
  }

  const WindowExtraction in_ext = extract_windows(input);
  const WindowExtraction out_ext = extract_windows(out);
  if (out_ext.rows != in_ext.rows || out_ext.cols != in_ext.cols) {
    c.error = out_path + ": window grid changed";
    return c;
  }
  constexpr double kTol = 1e-9;  // GLF keeps coordinates to max_digits10
  std::vector<GridD> fill;
  for (std::size_t l = 0; l < out_ext.num_layers(); ++l) {
    const GridD& got = out_ext.layers[l].dummy_density;
    const GridD& slack = in_ext.layers[l].slack;
    for (std::size_t i = 0; i < in_ext.rows; ++i) {
      for (std::size_t j = 0; j < in_ext.cols; ++j) {
        if (got(i, j) < -kTol || got(i, j) > slack(i, j) + kTol) {
          char buf[160];
          std::snprintf(buf, sizeof(buf),
                        ": layer %zu window (%zu,%zu) fill %.9g outside "
                        "[0, %.9g]",
                        l, i, j, got(i, j), slack(i, j));
          c.error = out_path + buf;
          return c;
        }
      }
    }
    fill.push_back(got);
  }

  CmpProcessParams params;
  params.window_um = in_ext.window_um;
  const CmpSimulator sim(params);
  const ScoreCoefficients coeffs = make_coefficients(input, in_ext, sim);
  const FillProblem problem(in_ext, sim, coeffs);
  c.s_qual = problem.evaluate(fill).s_qual;
  c.ok = true;
  return c;
}

JsonValue DigestBook::to_json() const {
  JsonValue v = obj();
  for (const auto& [key, digest] : digests_) v.object[key] = str(hex64(digest));
  return v;
}

void OpLedger::fail(const std::string& why, bool output_wrong) {
  ++failed;
  if (output_wrong) correct = false;
  if (errors.size() < 8) errors.push_back(why);
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
}

JsonValue OpLedger::to_json() const {
  JsonValue v = obj();
  v.object["attempted"] = num(static_cast<double>(attempted));
  v.object["failed"] = num(static_cast<double>(failed));
  v.object["correct"] = neurfill::serve::json_bool(correct);
  JsonValue e = arr();
  for (const std::string& s : errors) e.array.push_back(str(s));
  v.object["errors"] = std::move(e);
  return v;
}

JsonValue num(double v) { return neurfill::serve::json_number(v); }
JsonValue str(const std::string& s) { return neurfill::serve::json_string(s); }
JsonValue obj() { return neurfill::serve::json_object(); }

JsonValue arr() {
  JsonValue v;
  v.kind = JsonValue::Kind::kArray;
  return v;
}

JsonValue nums(const std::vector<double>& v) {
  JsonValue a = arr();
  for (double x : v) a.array.push_back(num(x));
  return a;
}


std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Input make_input(const std::string& dir, const std::string& key, char which,
                 int windows, std::uint64_t& state) {
  Input in;
  in.key = key;
  in.path = dir + "/" + key + ".glf";
  in.layout = make_design_rect(which, windows, windows, kWindowUm,
                               splitmix64(state));
  write_glf_file(in.path, in.layout);
  return in;
}

JsonValue input_sizes(const std::vector<Input>& inputs) {
  JsonValue list = arr();
  for (const Input& in : inputs) {
    std::ifstream f(in.path, std::ios::binary | std::ios::ate);
    JsonValue v = obj();
    v.object["key"] = str(in.key);
    v.object["windows_x"] = num(std::ceil(in.layout.width_um / kWindowUm));
    v.object["windows_y"] = num(std::ceil(in.layout.height_um / kWindowUm));
    v.object["layers"] = num(static_cast<double>(in.layout.num_layers()));
    v.object["wires"] = num(static_cast<double>(in.layout.total_wire_count()));
    v.object["bytes"] = num(f ? static_cast<double>(f.tellg()) : 0.0);
    list.array.push_back(std::move(v));
  }
  return list;
}

int self_test() {
  using E = obs::TraceEvent;
  struct Case {
    const char* what;
    std::vector<obs::ThreadTrace> threads;
    std::map<std::string, double> want_ns;
  };
  auto thread = [](int tid, std::vector<E> events) {
    obs::ThreadTrace t;
    t.tid = tid;
    t.events = std::move(events);
    return t;
  };
  const std::vector<Case> cases = {
      {"parent minus children",
       {thread(0, {{"step", 10, 30}, {"conv", 45, 55}, {"step", 40, 70},
                   {"run", 0, 100}})},
       {{"run", 50}, {"step", 40}, {"conv", 10}}},
      {"threads are separate tracks",
       {thread(0, {{"run", 0, 100}}), thread(1, {{"job", 10, 90}})},
       {{"run", 100}, {"job", 80}}},
      {"a span starting as its sibling ends is not its child",
       {thread(0, {{"a", 0, 10}, {"c", 12, 15}, {"b", 10, 20}})},
       {{"a", 10}, {"b", 7}, {"c", 3}}},
      {"of two equal-begin spans the longer is the parent",
       {thread(0, {{"inner", 0, 5}, {"outer", 0, 8}})},
       {{"outer", 3}, {"inner", 5}}},
      {"a recursive name counts each level once",
       {thread(0, {{"f", 2, 6}, {"f", 0, 10}})},
       {{"f", 10}}},
  };
  int failures = 0;
  for (const Case& c : cases) {
    const std::map<std::string, double> got = self_times(c.threads);
    bool ok = got.size() == c.want_ns.size();
    for (const auto& [name, ns] : c.want_ns) {
      const auto it = got.find(name);
      ok = ok && it != got.end() && std::abs(it->second - ns * 1e-9) < 1e-15;
    }
    std::printf("%s: self_times: %s\n", ok ? "ok" : "FAIL", c.what);
    failures += ok ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
