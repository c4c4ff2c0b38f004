// Open-loop load generator for the sharded aggregation service: sweeps
// shards x producer threads x batch_window over ER/RMAT update streams
// and reports sustained ingest throughput plus submit->applied latency
// percentiles (p50/p95/p99), the queue high-water mark, and the peak
// staged footprint.
//
// Each configuration first runs a correctness pass: N producers submit
// a fixed update set concurrently and the drained snapshot must be
// BIT-IDENTICAL to a one-shot core::spkadd over the same updates. The
// update values are quantized to small integers so double addition is
// exact and the comparison is exact regardless of how producers,
// workers and shard folds interleaved (see src/service/shard.hpp).
//
//   ./bench/bench_service --shards 1,2,4 --producers 2 --duration-ms 200
//   ./bench/bench_service --rate 500 --burst 1,8 --json samples.json
#include <atomic>
#include <cstdio>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "gen/workload.hpp"
#include "obs/metrics.hpp"
#include "service/agg_service.hpp"
#include "util/cli.hpp"
#include "util/thread_control.hpp"
#include "util/timer.hpp"

using namespace spkadd;
using Csc = CscMatrix<std::int32_t, double>;

namespace {

/// Snap every value to an integer in [-8, 8] so addition is exact.
void quantize_values(Csc& m) {
  for (auto& v : m.mutable_values())
    v = std::round(v * 8.0);
}

std::string ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e3);
  return buf;
}

std::string rate_str(double per_sec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f", per_sec);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "bench_service",
      "aggregation-service loadgen: shards x producers x batch_window");
  const auto* rows = cli.add_int("rows", 1 << 13, "update rows");
  const auto* cols = cli.add_int("cols", 32, "update cols");
  const auto* d = cli.add_int("d", 4, "avg nonzeros per column per update");
  const auto* updates =
      cli.add_int("updates", 24, "updates per producer (verify pass)");
  const auto* shards = cli.add_int_list("shards", "1,2,4", "shard sweep");
  const auto* producers = cli.add_int_list(
      "producers", "2", "producer-thread sweep (0 = OpenMP max threads)");
  const auto* windows =
      cli.add_int_list("batch-window", "4", "accumulator fold window sweep");
  const auto* bursts = cli.add_int_list(
      "burst", "8", "producer burst-buffer size sweep (1 = per-update)");
  const auto* flush_deadline_us = cli.add_int(
      "flush-deadline-us", 500, "max microseconds an update may sit staged");
  const auto* duration_ms =
      cli.add_int("duration-ms", 200, "throughput pass duration");
  const auto* queue = cli.add_int("queue", 64, "ingest queue capacity");
  const auto* queue_high = cli.add_int(
      "queue-high", 0, "throttle watermark (0 = queue capacity)");
  const auto* queue_low = cli.add_int(
      "queue-low", 0, "release watermark (0 = 3/4 of the high watermark)");
  const auto* pin = cli.add_flag(
      "pin", "pin worker i to CPU i (thread/shard affinity for scaling runs)");
  const auto* workers = cli.add_int("workers", 0, "worker threads (0=shards)");
  const auto* rate = cli.add_int(
      "rate", 0, "per-producer target updates/s (0 = saturation)");
  const auto* fold_threads = cli.add_int(
      "fold-threads", 1,
      "OpenMP threads per shard fold (worker concurrency is the axis "
      "under test, so per-fold column parallelism defaults off)");
  const auto* method_flag = cli.add_string(
      "method", "auto", "shard fold method (auto, hash, dense, ...)");
  const auto* metrics_flag = cli.add_string(
      "metrics", "on",
      "attach a metrics registry: on|off (the overhead-gate axis — "
      "scripts/bench_smoke.sh compares matched-load runs of both)");
  const auto* json = cli.add_string("json", "", "write JSON samples here");
  if (!cli.parse(argc, argv)) return 1;

  if (*metrics_flag != "on" && *metrics_flag != "off") {
    std::cerr << "bench_service: --metrics must be on or off\n";
    return 1;
  }
  const bool metrics_on = *metrics_flag == "on";

  core::Method fold_method;
  try {
    // Central parser (core/method.cpp) — no per-bench string->enum map.
    fold_method = core::method_from_name(*method_flag);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_service: " << e.what() << "\n";
    return 1;
  }

  // ServiceConfig's knobs are size_t: a negative flag would wrap to a
  // huge value that sails past validate(), so bound-check here.
  const auto positive = [](const char* name, std::int64_t v) {
    if (v < 1) {
      std::cerr << "bench_service: --" << name << " must be >= 1\n";
      return false;
    }
    return true;
  };
  if (!positive("rows", *rows) || !positive("cols", *cols) ||
      !positive("d", *d) || !positive("updates", *updates) ||
      !positive("queue", *queue) || !positive("duration-ms", *duration_ms) ||
      !positive("flush-deadline-us", *flush_deadline_us))
    return 1;
  if (*workers < 0 || *rate < 0 || *fold_threads < 0 || *queue_high < 0 ||
      *queue_low < 0) {
    std::cerr << "bench_service: --workers/--rate/--fold-threads/"
                 "--queue-high/--queue-low must be >= 0\n";
    return 1;
  }
  for (const auto& [name, list] :
       {std::pair<const char*, const std::vector<std::int64_t>*>{
            "shards", shards},
        {"batch-window", windows},
        {"burst", bursts}})
    for (const std::int64_t v : *list)
      if (!positive(name, v)) return 1;
  for (const std::int64_t v : *producers)
    if (v < 0) {
      std::cerr << "bench_service: --producers must be >= 0\n";
      return 1;
    }

  bench::print_header(
      "Sharded aggregation service loadgen",
      "sustained multi-producer ingest over the streaming accumulator");
  bench::SampleLog log("bench_service");

  bool all_verified = true;
  util::TablePrinter table({"pattern", "shards", "prod", "window", "burst",
                            "upd/s", "Mnnz/s", "p50 ms", "p99 ms", "avg bst",
                            "thr ms", "drops", "queue hw",
                            "chunks h/H/W/D",
                            "exact"});

  for (const gen::Pattern pattern : {gen::Pattern::ER, gen::Pattern::RMAT}) {
    const char* pname = pattern == gen::Pattern::ER ? "ER" : "RMAT";
    for (const std::int64_t P_flag : *producers) {
      // 0 producers = "one per available hardware thread", the knob the
      // multi-core CI scaling leg turns without caring what the runner
      // has (mirrors OpenMP's threads=0 convention in core::Options).
      const std::int64_t P =
          P_flag != 0 ? P_flag
                      : static_cast<std::int64_t>(
                            util::current_max_threads());
      // One fixed update set per (pattern, producer-count): P streams of
      // --updates each, integer-quantized. The one-shot reduction over
      // the whole set is the ground truth every config must hit.
      gen::WorkloadSpec spec;
      spec.pattern = pattern;
      spec.rows = *rows;
      spec.cols = *cols;
      spec.avg_nnz_per_col = *d;
      // make_workload wants a power-of-two k; generate enough and keep
      // the first P x --updates.
      const auto set_size = static_cast<std::size_t>(P * *updates);
      spec.k = 1;
      while (static_cast<std::size_t>(spec.k) < set_size) spec.k *= 2;
      spec.seed = 9000 + static_cast<std::uint64_t>(P);
      auto all_updates = gen::make_workload(spec);
      all_updates.resize(set_size);
      for (auto& u : all_updates) quantize_values(u);
      std::cerr << "generated " << spec.describe() << "\n";
      const Csc expected = core::spkadd(all_updates);
      std::size_t set_nnz = 0;
      for (const auto& u : all_updates) set_nnz += u.nnz();

      for (const std::int64_t S : *shards) {
        for (const std::int64_t W : *windows) {
         for (const std::int64_t B : *bursts) {
          service::ServiceConfig cfg;
          cfg.shards = static_cast<std::size_t>(S);
          cfg.workers = static_cast<std::size_t>(*workers);
          cfg.queue_capacity = static_cast<std::size_t>(*queue);
          cfg.batch_window = static_cast<std::size_t>(W);
          cfg.burst_size = static_cast<std::size_t>(B);
          cfg.flush_deadline_us =
              static_cast<std::size_t>(*flush_deadline_us);
          cfg.queue_high_watermark = static_cast<std::size_t>(*queue_high);
          cfg.queue_low_watermark = static_cast<std::size_t>(*queue_low);
          cfg.pin_threads = *pin;
          cfg.options.threads = static_cast<int>(*fold_threads);
          cfg.options.method = fold_method;
          // Fresh registry per configuration so sequential sweeps never
          // pollute each other's samples; off = nullptr disables every
          // collector registration.
          obs::MetricsRegistry registry;
          cfg.metrics = metrics_on ? &registry : nullptr;

          // --- correctness pass: concurrent ingest == one-shot spkadd.
          bool exact = false;
          {
            service::AggService svc(cfg);
            std::vector<std::thread> threads;
            for (std::int64_t p = 0; p < P; ++p)
              threads.emplace_back([&, p] {
                for (std::int64_t i = 0; i < *updates; ++i)
                  svc.submit("bench", all_updates[static_cast<std::size_t>(
                                          p * *updates + i)]);
              });
            for (auto& t : threads) t.join();
            svc.drain();
            exact = svc.snapshot("bench").sum == expected;
          }
          all_verified = all_verified && exact;
          if (!exact)
            std::cerr << "MISMATCH: shards=" << S << " producers=" << P
                      << " window=" << W << " is not bit-identical to "
                      << "one-shot spkadd\n";

          // --- throughput pass: open-loop ingest for --duration-ms.
          service::AggService svc(cfg);
          util::WallTimer wall;
          const double duration = static_cast<double>(*duration_ms) * 1e-3;
          std::atomic<std::uint64_t> drops{0};
          std::vector<std::thread> threads;
          for (std::int64_t p = 0; p < P; ++p)
            threads.emplace_back([&, p] {
              util::WallTimer t;
              std::size_t i = 0;
              const std::size_t n = all_updates.size();
              const std::size_t base = static_cast<std::size_t>(p * *updates);
              while (t.seconds() < duration) {
                Csc u = all_updates[(base + i++) % n];
                if (*rate <= 0) {
                  svc.submit("bench", std::move(u));  // saturation mode
                  continue;
                }
                // Fixed arrival schedule; a saturated ingest path drops
                // the update (counted here) instead of slipping the
                // clock — that keeps offered load matched across
                // configurations when comparing their p99.
                if (!svc.try_submit("bench", std::move(u)))
                  drops.fetch_add(1, std::memory_order_relaxed);
                const double next = static_cast<double>(i) /
                                    static_cast<double>(*rate);
                const double sleep_s = next - t.seconds();
                if (sleep_s > 0)
                  std::this_thread::sleep_for(
                      std::chrono::duration<double>(sleep_s));
              }
            });
          for (auto& t : threads) t.join();
          svc.drain();
          const double elapsed = wall.seconds();
          const auto st = svc.stats();

          const double upd_s =
              static_cast<double>(st.applied) / elapsed;
          std::uint64_t folded = 0;
          std::size_t peak_staged = 0;
          core::OpCounters chunk_totals;
          for (const auto& sh : st.shards) {
            folded += sh.folded_nnz;
            peak_staged = std::max(peak_staged, sh.peak_staged_nnz);
            chunk_totals += sh.counters;
          }
          const double nnz_s = static_cast<double>(folded) / elapsed;
          const std::string mix = fold_method == core::Method::Auto
                                      ? chunk_totals.chunk_mix()
                                      : "-";

          char avg_bst[32];
          std::snprintf(avg_bst, sizeof(avg_bst), "%.1f",
                        st.avg_burst());
          const std::string config =
              "pattern=" + std::string(pname) + " shards=" +
              std::to_string(S) + " producers=" + std::to_string(P) +
              " window=" + std::to_string(W) + " burst=" +
              std::to_string(B) + " rate=" + std::to_string(*rate) +
              " pin=" + (*pin ? "1" : "0") +
              " method=" + core::method_name(fold_method) +
              " metrics=" + *metrics_flag;
          table.add_row({pname, std::to_string(S), std::to_string(P),
                         std::to_string(W), std::to_string(B),
                         rate_str(upd_s), rate_str(nnz_s / 1e6),
                         ms(st.latency.p50), ms(st.latency.p99), avg_bst,
                         ms(st.throttle_seconds),
                         *rate > 0 ? std::to_string(drops.load()) : "-",
                         std::to_string(st.queue_high_water), mix,
                         exact ? "yes" : "NO"});
          log.add("service/" + std::string(pname) + "/ingest", config,
                  bench::Timing::once(
                      st.applied ? elapsed / static_cast<double>(st.applied)
                                 : 0.0),
                  peak_staged);
          log.add("service/" + std::string(pname) + "/p99", config,
                  bench::Timing::once(st.latency.p99), peak_staged);
         }
        }
      }
    }
  }

  table.print(std::cout);
  std::cout << "\nall configurations bit-identical to one-shot spkadd: "
            << (all_verified ? "yes" : "NO") << "\n";
  if (!json->empty() && !log.write(*json)) return 1;
  return all_verified ? 0 : 1;
}
