// Self-checking loadgen for the network daemon (net/server.hpp): N
// concurrent SPKN connections hammer a daemon over localhost with
// timestamped integer-valued updates, and EVERY windowed snapshot is
// verified bit-identical to a single-threaded reference fold of the
// live buckets (integer values make double addition exact, so no
// producer/worker/connection interleaving may change a single bit).
//
// The run is round-based: round r submits into time bucket r from all
// connections at once, a drain barrier cuts the round, and the bench
// then checks every window width 1..live_buckets (and the full ring)
// for every tenant against core::spkadd over exactly the updates the
// window should contain. A final stale-timestamp phase verifies that
// expired submits are counted and never folded.
//
// Modes:
//   ./bench/bench_daemon                      # in-process daemon
//   ./bench/bench_daemon --serve --port-file p.txt   # daemon only
//   ./bench/bench_daemon --connect 127.0.0.1:7070    # loadgen only
// The serve/connect pair is what the CI daemon-smoke job runs: a real
// daemon process, a real loadgen process, a real TCP port between
// them. --json writes the SampleLog merged into BENCH_daemon.json.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <memory>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "gen/workload.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

using namespace spkadd;
using Csc = CscMatrix<std::int32_t, double>;

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

/// Snap every value to an integer in [-8, 8] so addition is exact.
void quantize_values(Csc& m) {
  for (auto& v : m.mutable_values()) v = std::round(v * 8.0);
}

/// Pull `"key":<number>` out of the daemon's stats JSON.
std::uint64_t json_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return ~std::uint64_t{0};
  return std::stoull(json.substr(pos + needle.size()));
}

struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

bool parse_endpoint(const std::string& s, Endpoint& out) {
  const auto colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  out.host = s.substr(0, colon);
  try {
    const int p = std::stoi(s.substr(colon + 1));
    if (p < 1 || p > 65535) return false;
    out.port = static_cast<std::uint16_t>(p);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("bench_daemon",
                      "network daemon loadgen: N SPKN connections with "
                      "bit-identity verification of windowed snapshots");
  const auto* rows = cli.add_int("rows", 1 << 11, "update rows");
  const auto* cols = cli.add_int("cols", 16, "update cols");
  const auto* d = cli.add_int("d", 4, "avg nonzeros per column per update");
  const auto* connections =
      cli.add_int("connections", 8, "concurrent loadgen connections");
  const auto* updates = cli.add_int(
      "updates", 6, "updates per connection per round");
  const auto* rounds =
      cli.add_int("rounds", 6, "time-bucket rounds to stream");
  const auto* tenants = cli.add_int("tenants", 2, "tenants to spread over");
  const auto* bucket_width =
      cli.add_int("bucket-width", 1000, "window bucket width (ticks)");
  const auto* live_buckets =
      cli.add_int("live-buckets", 4, "live window ring size (buckets)");
  const auto* workers =
      cli.add_int("workers", 2, "daemon ingest worker threads");
  const auto* queue = cli.add_int("queue", 128, "ingest queue capacity");
  const auto* burst =
      cli.add_int("burst", 8, "daemon worker burst size");
  const auto* serve = cli.add_flag(
      "serve", "run the daemon only, until SIGTERM/SIGINT");
  const auto* port_flag =
      cli.add_int("port", 0, "--serve listen port (0 = ephemeral)");
  const auto* port_file = cli.add_string(
      "port-file", "", "--serve: write the bound port here (CI handshake)");
  const auto* connect_flag = cli.add_string(
      "connect", "", "loadgen only, against host:port (no local daemon)");
  const auto* scrape_flag = cli.add_string(
      "scrape", "",
      "print the daemon's Prometheus exposition via the SPKN metrics "
      "verb (host:port) and exit");
  const auto* json = cli.add_string("json", "", "write JSON samples here");
  if (!cli.parse(argc, argv)) return 1;

  const auto positive = [](const char* name, std::int64_t v) {
    if (v < 1) {
      std::cerr << "bench_daemon: --" << name << " must be >= 1\n";
      return false;
    }
    return true;
  };
  if (!positive("rows", *rows) || !positive("cols", *cols) ||
      !positive("d", *d) || !positive("connections", *connections) ||
      !positive("updates", *updates) || !positive("rounds", *rounds) ||
      !positive("tenants", *tenants) ||
      !positive("bucket-width", *bucket_width) ||
      !positive("live-buckets", *live_buckets) ||
      !positive("workers", *workers) || !positive("queue", *queue) ||
      !positive("burst", *burst))
    return 1;
  if (*port_flag < 0 || *port_flag > 65535) {
    std::cerr << "bench_daemon: --port must be in [0, 65535]\n";
    return 1;
  }

  net::ServerConfig server_cfg;
  server_cfg.port = static_cast<std::uint16_t>(*port_flag);
  server_cfg.service.window.bucket_width =
      static_cast<std::uint64_t>(*bucket_width);
  server_cfg.service.window.live_buckets =
      static_cast<std::size_t>(*live_buckets);
  server_cfg.service.workers = static_cast<std::size_t>(*workers);
  server_cfg.service.queue_capacity = static_cast<std::size_t>(*queue);
  server_cfg.service.burst_size = static_cast<std::size_t>(*burst);

  // ------------------------------------------------------ serve mode
  if (*serve) {
    net::DaemonServer server(server_cfg);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    std::cout << "bench_daemon: serving on 127.0.0.1:" << server.port()
              << std::endl;
    if (!port_file->empty()) {
      std::ofstream out(*port_file);
      out << server.port() << "\n";
      if (!out) {
        std::cerr << "bench_daemon: cannot write " << *port_file << "\n";
        return 1;
      }
    }
    while (!g_stop.load())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    server.stop();
    const auto stats = server.stats();
    std::cout << "bench_daemon: served " << stats.connections_accepted
              << " connections, "
              << stats.requests_submit + stats.requests_snapshot +
                     stats.requests_drain + stats.requests_stats +
                     stats.requests_metrics
              << " requests, " << stats.protocol_errors
              << " protocol errors\n";
    return stats.protocol_errors == 0 ? 0 : 1;
  }

  // ----------------------------------------------------- scrape mode
  if (!scrape_flag->empty()) {
    Endpoint ep;
    if (!parse_endpoint(*scrape_flag, ep)) {
      std::cerr << "bench_daemon: --scrape wants host:port, got '"
                << *scrape_flag << "'\n";
      return 1;
    }
    net::Client client(ep.host, ep.port);
    net::Status status = net::Status::kInternal;
    const std::string text = client.metrics_text(&status);
    if (status != net::Status::kOk) {
      std::cerr << "bench_daemon: metrics verb answered "
                << net::status_name(status) << "\n";
      return 1;
    }
    std::cout << text;
    return text.empty() ? 1 : 0;
  }

  // --------------------------------------------------- loadgen setup
  Endpoint endpoint{"127.0.0.1", 0};
  std::unique_ptr<net::DaemonServer> local;
  if (connect_flag->empty()) {
    local = std::make_unique<net::DaemonServer>(server_cfg);
    endpoint.port = local->port();
  } else if (!parse_endpoint(*connect_flag, endpoint)) {
    std::cerr << "bench_daemon: --connect wants host:port, got '"
              << *connect_flag << "'\n";
    return 1;
  }

  bench::print_header("Aggregation daemon loadgen",
                      "SPKN connections over localhost with windowed "
                      "snapshot bit-identity verification");
  bench::SampleLog log("bench_daemon");

  const auto C = static_cast<std::size_t>(*connections);
  const auto U = static_cast<std::size_t>(*updates);
  const auto R = static_cast<std::size_t>(*rounds);
  const auto T = static_cast<std::size_t>(*tenants);
  const auto live = static_cast<std::size_t>(*live_buckets);
  const auto width = static_cast<std::uint64_t>(*bucket_width);

  // One deterministic integer-valued update set: index
  // (round, connection, i) -> all_updates[(r*C + c)*U + i].
  gen::WorkloadSpec spec;
  spec.rows = *rows;
  spec.cols = *cols;
  spec.avg_nnz_per_col = *d;
  // make_workload wants a power-of-two k; generate enough and index
  // into the prefix.
  spec.k = 1;
  while (spec.k < static_cast<int>(R * C * U)) spec.k *= 2;
  spec.seed = 4242;
  auto all_updates = gen::make_workload(spec);
  for (auto& u : all_updates) quantize_values(u);
  std::cerr << "generated " << spec.describe() << "\n";
  const auto update_at = [&](std::size_t r, std::size_t c,
                             std::size_t i) -> const Csc& {
    return all_updates[(r * C + c) * U + i];
  };
  const auto tenant_name = [&](std::size_t c) {
    return "tenant-" + std::to_string(c % T);
  };

  std::vector<std::unique_ptr<net::Client>> clients;
  for (std::size_t c = 0; c < C; ++c)
    clients.push_back(
        std::make_unique<net::Client>(endpoint.host, endpoint.port));
  net::Client control(endpoint.host, endpoint.port);

  // Reference for tenant t over rounds [lo, hi]: one-shot spkadd over
  // exactly the updates those connections streamed into those buckets
  // (integer values: bit-identical to the daemon's strict bucket fold).
  const auto reference = [&](std::size_t t, std::size_t lo,
                             std::size_t hi) {
    std::vector<Csc> inputs;
    for (std::size_t r = lo; r <= hi; ++r)
      for (std::size_t c = 0; c < C; ++c) {
        if (c % T != t) continue;
        for (std::size_t i = 0; i < U; ++i)
          inputs.push_back(update_at(r, c, i));
      }
    return core::spkadd(inputs);
  };

  // ------------------------------------------------- round-based run
  std::uint64_t mismatches = 0;
  std::atomic<std::uint64_t> ack_failures{0};
  std::uint64_t verified_snapshots = 0;
  util::WallTimer total;
  for (std::size_t r = 0; r < R; ++r) {
    const std::uint64_t ts = static_cast<std::uint64_t>(r) * width + 1;
    util::WallTimer round_timer;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < C; ++c)
      threads.emplace_back([&, c] {
        net::Client& client = *clients[c];
        for (std::size_t i = 0; i < U; ++i)
          client.submit_async(tenant_name(c), ts, update_at(r, c, i));
        if (client.collect_acks(U) != U) ++ack_failures;
      });
    for (auto& t : threads) t.join();
    if (control.drain() != net::Status::kOk) ++ack_failures;
    const double round_s = round_timer.seconds();

    // Verify every window width against the reference fold.
    const std::size_t oldest_live = r + 1 > live ? r + 1 - live : 0;
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t w = 1; w <= live; ++w) {
        const std::size_t lo = r + 1 > w ? r + 1 - w : 0;
        const auto snap = control.snapshot(tenant_name(t), w);
        if (snap.status != net::Status::kOk ||
            snap.sum != reference(t, std::max(lo, oldest_live), r)) {
          ++mismatches;
          std::cerr << "MISMATCH: round " << r << " tenant " << t
                    << " window " << w << "\n";
        } else {
          ++verified_snapshots;
        }
      }
      // Full ring (window 0) must equal the widest live cut.
      const auto snap = control.snapshot(tenant_name(t), 0);
      if (snap.status != net::Status::kOk ||
          snap.sum != reference(t, oldest_live, r)) {
        ++mismatches;
        std::cerr << "MISMATCH: round " << r << " tenant " << t
                  << " full ring\n";
      } else {
        ++verified_snapshots;
      }
    }
    const double per_update =
        round_s / static_cast<double>(C * U);
    log.add("daemon/round",
            "round=" + std::to_string(r) + " connections=" +
                std::to_string(C) + " updates=" + std::to_string(C * U),
            bench::Timing::once(per_update));
  }
  const double total_s = total.seconds();

  // ------------------------------------- stale-timestamp (expiry) run
  std::uint64_t expired_before = 0, expired_after = 0;
  if (R > live) {
    const std::string json_before = control.stats_json();
    expired_before = json_field(json_before, "expired");
    const Csc before = control.snapshot(tenant_name(0), 0).sum;
    // Bucket 0 aged out of the ring rounds ago: the daemon must accept
    // the frame, then reject + count the update at fold time.
    if (control.submit(tenant_name(0), 0, update_at(0, 0, 0)) !=
        net::Status::kOk)
      ++ack_failures;
    if (control.drain() != net::Status::kOk) ++ack_failures;
    const std::string json_after = control.stats_json();
    expired_after = json_field(json_after, "expired");
    if (expired_after != expired_before + 1) {
      ++mismatches;
      std::cerr << "MISMATCH: stale submit not counted expired\n";
    }
    if (control.snapshot(tenant_name(0), 0).sum != before) {
      ++mismatches;
      std::cerr << "MISMATCH: stale submit leaked into the window\n";
    }
  }

  // ------------------------------------------------------- verdict
  const std::string stats = control.stats_json();
  const std::uint64_t protocol_errors =
      json_field(stats, "protocol_errors");
  const std::uint64_t applied = json_field(stats, "applied");
  const double upd_s =
      static_cast<double>(R * C * U) / total_s;
  std::cout << "connections:        " << C << "\n"
            << "rounds x updates:   " << R << " x " << C * U << "\n"
            << "updates applied:    " << applied << "\n"
            << "sustained rate:     " << static_cast<std::uint64_t>(upd_s)
            << " updates/s\n"
            << "verified snapshots: " << verified_snapshots << "\n"
            << "expired (counted):  " << expired_after << "\n"
            << "protocol errors:    " << protocol_errors << "\n"
            << "mismatches:         " << mismatches << "\n"
            << "ack failures:       " << ack_failures << "\n";
  log.add("daemon/ingest",
          "connections=" + std::to_string(C) + " rounds=" +
              std::to_string(R) + " tenants=" + std::to_string(T) +
              " workers=" + std::to_string(*workers),
          bench::Timing::once(total_s / static_cast<double>(R * C * U)));

  clients.clear();
  control.close();
  if (local != nullptr) local->stop();

  const bool ok =
      mismatches == 0 && ack_failures == 0 && protocol_errors == 0;
  std::cout << "\nall windowed snapshots bit-identical to reference "
            << "folds, zero protocol errors: " << (ok ? "yes" : "NO")
            << "\n";
  if (!json->empty() && !log.write(*json)) return 1;
  return ok ? 0 : 1;
}
