// perfbench: one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Untraced (--trace 0): set up the system three times (median is
// setup_s), run the closed loop for --seconds, and print the end-to-end
// metrics. Traced (--trace 1): the same for --seconds/2 untraced, then
// again with spans for --seconds/2, then the per-layer ledger; prints
// every per-layer metric plus each end-to-end median's tracing overhead.
// The last stdout line is the result object; exit status 0 means every
// output matched its reference and no operation failed.
#include <sched.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "util/cache_info.hpp"
#include "util/json.hpp"
#include "util/thread_control.hpp"
#include "version.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

/// Set-ups per run: setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--trace-out") a.trace_out = val;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0;
}

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(spkadd::util::online_cpu_count());
}

struct Phase {
  double setup_s = 0;
  double peak_rss_mib = 0;
  double steal_pct = 0;  ///< host steal during the loop (diagnostic)
  PhaseResult loop;
};

/// Set up kSetups times (each earlier system verified and torn down),
/// then run the closed loop on the last one. Peak memory covers both.
Phase run_phase(Workload& w, double seconds, Tracer* tracer) {
  PeakRss rss;
  rss.reset();
  Lane* setup_lane = tracer != nullptr ? tracer->add_lane("setup") : nullptr;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) w.finish();
    const std::uint64_t t0 = now_ns();
    w.setup(setup_lane);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  Phase p;
  p.setup_s = median(setup_s);
  const StealMeter steal;
  p.loop = w.measure(seconds, tracer);
  p.steal_pct = steal.percent();
  p.peak_rss_mib = rss.peak_mib();
  return p;
}

/// The end-to-end metrics of a phase, in BENCHMARK.json order.
std::vector<Metric> end_to_end(const Phase& p) {
  return {{"setup_s", p.setup_s, "s"},
          {"peak_rss_mib", p.peak_rss_mib, "MiB"},
          {"gnnz_per_s", p.loop.gnnz_per_s, "Gnnz/s"},
          {"updates_per_s", p.loop.updates_per_s, "1/s"},
          {"visible_p50_ms", p.loop.visible_p50_ms, "ms"}};
}

void print_record(const Args& a, const Layout& l, int nproc,
                  const char* omp_env) {
  std::cout << "{\"record\": {\"workload\": \"" << a.workload
            << "\", \"seed\": " << a.seed << ", \"seconds\": " << a.seconds
            << ", \"trace\": " << (a.trace ? 1 : 0) << ", \"nproc\": " << nproc
            << ", \"omp_num_threads\": \"" << (omp_env ? omp_env : "")
            << "\", \"kernel_team\": " << l.kernel_team
            << ", \"service_threads\": " << l.service_threads
            << ", \"client_threads\": " << l.client_threads
            << ", \"connections\": " << l.connections << ", \"machine\": \""
            << spkadd::util::json_escape(
                   spkadd::util::cached_machine().summary())
            << "\", \"spkadd_version\": \"" << spkadd::kVersion << "\"}}\n";
}

void print_detail(const char* phase, const Phase& p) {
  std::cout << "{\"detail\": {\"phase\": \"" << phase
            << "\", \"ops\": " << p.loop.ops
            << ", \"op_p99_ms\": " << json_number(p.loop.op_p99_ms)
            << ", \"steal_pct\": " << json_number(p.steal_pct);
  for (const Metric& m : end_to_end(p))
    std::cout << ", \"" << m.name << "\": " << json_number(m.value);
  std::cout << "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    if (!parse(argc, argv, args)) throw std::invalid_argument("bad arguments");
  } catch (const std::exception&) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <path>]\n";
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (w == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const int nproc = cpus_available();
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  const Layout layout = w->layout();
  print_record(args, layout, nproc, omp_env);
  // Service threads read the OpenMP default when Options::threads is 0,
  // so the team size must come from the environment, not only a call.
  if (omp_env == nullptr || std::atoi(omp_env) != kOmpTeam ||
      spkadd::util::current_max_threads() != kOmpTeam) {
    std::cerr << "perfbench: needs OMP_NUM_THREADS=" << kOmpTeam << "\n";
    return 2;
  }
  if (layout.busy_threads() > nproc) {
    std::cerr << "perfbench: " << args.workload << " starts "
              << layout.busy_threads() << " busy threads but only " << nproc
              << " CPUs are available\n";
    return 2;
  }

  Outcome out;
  try {
    w->generate(args.seed);
    if (!args.trace) {
      const Phase p = run_phase(*w, args.seconds, nullptr);
      w->finish();
      print_detail("untraced", p);
      out.metrics = end_to_end(p);
    } else {
      Tracer tracer;
      const Phase plain = run_phase(*w, args.seconds / 2, nullptr);
      w->finish();
      const Phase traced = run_phase(*w, args.seconds / 2, &tracer);
      LayerCounts counts;
      w->ledger(tracer.add_lane("ledger"), counts);
      w->finish();
      print_detail("untraced", plain);
      print_detail("traced", traced);
      emit_layer_metrics(tracer, counts, out);
      const std::vector<Metric> base = end_to_end(plain);
      const std::vector<Metric> with = end_to_end(traced);
      for (std::size_t i = 0; i < base.size(); ++i)
        out.add("overhead." + base[i].name,
                100.0 * (with[i].value - base[i].value) / base[i].value, "%");
      if (!args.trace_out.empty() && !tracer.write_jsonl(args.trace_out))
        std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " threw: " << e.what()
              << "\n";
    w->tally.check(false, "run aborted by an exception");
    out.metrics.clear();
  }
  out.attempted = w->tally.attempted.load();
  out.failed = w->tally.failed.load();
  out.correct = out.failed == 0;
  std::cout << out.json() << std::endl;
  return out.correct ? 0 : 1;
}
