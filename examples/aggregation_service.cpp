// Multi-tenant sparse gradient aggregation through the AggService — the
// gradient_aggregation example promoted from a single-shot reduction to
// the long-lived service layer. Three model tenants ("vision", "text",
// "ranker") with different weight-matrix shapes each receive sparsified
// gradients from concurrent workers; the service shards every update by
// row range, folds it through per-shard streaming accumulators, and
// serves consistent epoch snapshots while ingest continues.
//
// Gradient values are quantized to small integers (exact double
// addition), so each tenant's drained snapshot must be BIT-IDENTICAL to
// a one-shot SpKAdd over its gradients no matter how the producer and
// worker threads interleaved — which is what this example checks before
// exiting 0.
//
//   ./examples/aggregation_service [--workers-per-tenant 2] [--rounds 12]
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "core/spkadd.hpp"
#include "matrix/coo.hpp"
#include "service/agg_service.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using Csc = spkadd::CscMatrix<std::int32_t, double>;

namespace {

struct TenantSpec {
  std::string name;
  std::int32_t rows;
  std::int32_t cols;
  std::size_t nnz_per_gradient;
};

/// One worker's sparsified gradient: ~nnz random entries whose values
/// are integers in [-4, 4] (top-s magnitude selection has no structure
/// the reducer could exploit, so uniform coordinates model it fine).
Csc make_gradient(const TenantSpec& t, std::uint64_t seed) {
  spkadd::util::Xoshiro256 root(4242);
  auto rng = root.split(seed);
  spkadd::CooMatrix<std::int32_t, double> g(t.rows, t.cols);
  g.reserve(t.nnz_per_gradient);
  for (std::size_t i = 0; i < t.nnz_per_gradient; ++i) {
    const auto r = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(t.rows)));
    const auto c = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(t.cols)));
    g.push(r, c, std::round(8.0 * rng.uniform()) - 4.0);
  }
  g.compress();
  return g.to_csc();
}

}  // namespace

int main(int argc, char** argv) {
  spkadd::util::CliParser cli(
      "aggregation_service",
      "multi-tenant gradient aggregation through the sharded service");
  const auto* workers =
      cli.add_int("workers-per-tenant", 2, "producer threads per tenant");
  const auto* rounds =
      cli.add_int("rounds", 12, "gradients per producer thread");
  const auto* shards = cli.add_int("shards", 4, "row-range shards");
  const auto* window = cli.add_int("batch-window", 4, "fold window");
  const auto* burst =
      cli.add_int("burst", 4, "producer burst-buffer size (1 = per-update)");
  if (!cli.parse(argc, argv)) return 1;
  // ServiceConfig's knobs are size_t: negative flags would wrap huge.
  if (*workers < 1 || *rounds < 1 || *shards < 1 || *window < 1 ||
      *burst < 1) {
    std::cerr << "aggregation_service: all flags must be >= 1\n";
    return 1;
  }

  const std::vector<TenantSpec> tenants = {
      {"vision", 1 << 14, 64, 2048},
      {"text", 1 << 15, 32, 4096},
      {"ranker", 1 << 12, 16, 512},
  };

  spkadd::service::ServiceConfig cfg;
  cfg.shards = static_cast<std::size_t>(*shards);
  cfg.batch_window = static_cast<std::size_t>(*window);
  cfg.burst_size = static_cast<std::size_t>(*burst);
  cfg.options.threads = 1;  // producer/worker threads are the parallelism
  spkadd::service::AggService svc(cfg);

  // Pre-materialize every gradient so the ground truth sums over
  // exactly what the producers will submit.
  const std::size_t per_tenant =
      static_cast<std::size_t>(*workers * *rounds);
  std::vector<std::vector<Csc>> gradients(tenants.size());
  for (std::size_t t = 0; t < tenants.size(); ++t)
    for (std::size_t i = 0; i < per_tenant; ++i)
      gradients[t].push_back(
          make_gradient(tenants[t], 1000 * t + i));

  // Prime each tenant with an empty update so mid-stream snapshots
  // below never race tenant creation. An empty addend changes nothing.
  for (const auto& t : tenants) svc.submit(t.name, Csc(t.rows, t.cols));

  // Concurrent ingest: every tenant's workers submit in parallel.
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < tenants.size(); ++t)
    for (std::int64_t w = 0; w < *workers; ++w)
      producers.emplace_back([&, t, w] {
        for (std::int64_t i = 0; i < *rounds; ++i)
          svc.submit(tenants[t].name,
                     gradients[t][static_cast<std::size_t>(
                         w * *rounds + i)]);
      });

  // A mid-stream consistent read: snapshots never block ingest.
  const auto mid = svc.snapshot("vision");
  std::cout << "mid-stream vision snapshot: epoch " << mid.epoch << ", "
            << mid.updates_applied << " updates, " << mid.sum.nnz()
            << " nnz\n";

  for (auto& p : producers) p.join();
  svc.drain();

  bool ok = true;
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const auto snap = svc.snapshot(tenants[t].name);
    const Csc expected = spkadd::core::spkadd(gradients[t]);
    const bool exact = snap.sum == expected;
    ok = ok && exact;
    std::cout << tenants[t].name << ": " << snap.updates_applied
              << " gradients -> " << snap.sum.nnz() << " nnz (epoch "
              << snap.epoch << "), bit-identical to one-shot spkadd: "
              << (exact ? "yes" : "NO") << "\n";
  }

  const auto st = svc.stats();
  std::cout << "service: " << st.applied << " updates applied, p99 "
            << st.latency.p99 * 1e3 << " ms, queue high-water "
            << st.queue_high_water << "/" << cfg.queue_capacity << "\n";
  std::cout << "ingest: " << st.bursts << " bursts, avg "
            << st.avg_burst() << " updates/burst (full/deadline/"
            << "drain flushes " << st.ingest.flushes_full << "/"
            << st.ingest.flushes_deadline << "/" << st.ingest.flushes_drain
            << "), throttled " << st.throttle_events << "x for "
            << st.throttle_seconds * 1e3 << " ms\n";
  svc.stop();
  return ok ? 0 : 1;
}
