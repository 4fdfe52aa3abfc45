// nf_perfbench: runs one benchmark workload and writes its raw samples.
//
//   nf_perfbench --workload W --seed N --seconds S --trace 0|1
//                --work DIR --surrogate PREFIX --out FILE
//   nf_perfbench --self-test
//
// run.py builds and drives this binary; it is not meant to be run alone.
// Exit codes: 0 done (the result may still record failed operations),
// 1 the workload could not run, 2 usage error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/resource.hpp"
#include "runtime/parallel.hpp"

using namespace perfbench;

namespace {

struct Workload {
  const char* name;
  int threads;  ///< runtime pool size, capped at the host's core count
  void (*run)(const Args&, JsonValue&);
};

constexpr Workload kWorkloads[] = {
    {"fill_pkb", 1, run_fill_pkb},
    {"fill_mm", 4, run_fill_mm},
    {"fullchip_tiled", 4, run_fullchip_tiled},
    {"serve_mixed", 1, run_serve_mixed},
};

int usage() {
  std::fprintf(stderr,
               "usage: nf_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work DIR --surrogate PREFIX --out FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0)
    return self_test();
  Args args;
  std::string trace = "0";
  if (argc % 2 == 0) return usage();
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") trace = value;
      else if (flag == "--work") args.work = value;
      else if (flag == "--surrogate") args.surrogate = value;
      else if (flag == "--out") args.out = value;
      else return usage();
    }
  } catch (const std::exception&) {  // stoull/stod on a non-number
    return usage();
  }
  args.trace = trace == "1";
  const Workload* w = nullptr;
  for (const Workload& k : kWorkloads)
    if (args.workload == k.name) w = &k;
  if (w == nullptr || args.work.empty() || args.surrogate.empty() ||
      args.out.empty() || !(args.seconds > 0.0) ||
      (trace != "0" && trace != "1"))
    return usage();

  neurfill::set_log_level(neurfill::LogLevel::kWarn);
  const int cores =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = std::min(w->threads, cores);
  neurfill::runtime::set_thread_count(threads);
  std::filesystem::create_directories(args.work);

  JsonValue result = obj();
  const auto t0 = Clock::now();
  try {
    w->run(args, result);
  } catch (const neurfill::ErrorException& e) {
    std::fprintf(stderr, "error: %s\n", e.err.to_string().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  result.object["workload"] = str(w->name);
  result.object["seed"] = num(static_cast<double>(args.seed));
  result.object["threads"] = num(threads);
  result.object["run_s"] = num(seconds_since(t0));
  result.object["peak_rss_bytes"] =
      num(static_cast<double>(neurfill::peak_rss_bytes()));

  std::ofstream f(args.out);
  f << neurfill::serve::json_render(result) << '\n';
  return f ? 0 : 1;
}
