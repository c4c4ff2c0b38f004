// DaemonServer + Client: SPKN round-trips over real localhost sockets,
// many concurrent connections feeding the burst path, per-connection
// protocol-error accounting, and clean shutdown draining in-flight
// submits. Runs under the TSAN CI leg (label: concurrency).
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/spkadd.hpp"
#include "net/client.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace {

using namespace spkadd::net;
using spkadd::testing::Csc;

constexpr std::int32_t kRows = 90;
constexpr std::int32_t kCols = 6;

Csc integer_matrix(std::uint64_t seed) {
  spkadd::util::Xoshiro256 rng(seed);
  spkadd::CooMatrix<std::int32_t, double> coo(kRows, kCols);
  coo.reserve(50);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto r = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(kRows)));
    const auto c = static_cast<std::int32_t>(
        rng.bounded(static_cast<std::uint64_t>(kCols)));
    coo.push(r, c, static_cast<double>(rng.bounded(9)) - 4.0);
  }
  coo.compress();
  return coo.to_csc();
}

ServerConfig test_config() {
  ServerConfig cfg;
  cfg.service.window.bucket_width = 10;
  cfg.service.window.live_buckets = 4;
  cfg.service.window.batch_window = 3;
  cfg.service.workers = 2;
  cfg.service.queue_capacity = 64;
  cfg.service.burst_size = 8;
  return cfg;
}

/// Raw HTTP GET against the daemon's port: connect, send the request
/// line, read to EOF (the server answers Connection: close). The SPKN
/// Client cannot do this — the point is exercising the plain-HTTP path
/// the poll loop sniffs out by first byte.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const std::string req =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, req.data(), req.size(), 0),
            static_cast<ssize_t>(req.size()));
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

/// Pull `"key":<number>` out of the stats JSON (flat integer fields).
std::uint64_t json_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = json.find(needle);
  if (pos == std::string::npos) return ~std::uint64_t{0};
  return std::stoull(json.substr(pos + needle.size()));
}

// ----------------------------------------------------------- lifecycle
TEST(Daemon, StartsOnEphemeralPortAndStopsCleanly) {
  DaemonServer server(test_config());
  EXPECT_NE(server.port(), 0);
  server.stop();
  server.stop();  // idempotent
  const auto stats = server.stats();
  EXPECT_EQ(stats.connections_accepted, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// ---------------------------------------------------------- round-trip
TEST(Daemon, SubmitDrainSnapshotRoundTrip) {
  DaemonServer server(test_config());
  Client client("127.0.0.1", server.port());
  std::vector<Csc> updates;
  for (std::uint64_t i = 0; i < 6; ++i) {
    updates.push_back(integer_matrix(i));
    EXPECT_EQ(client.submit("t", 15, updates.back()), Status::kOk);
  }
  std::uint64_t applied = 0;
  EXPECT_EQ(client.drain(&applied), Status::kOk);
  EXPECT_EQ(applied, updates.size());
  const auto snap = client.snapshot("t");
  ASSERT_EQ(snap.status, Status::kOk);
  EXPECT_GE(snap.epoch, 1u);
  // One bucket only: the wire snapshot must be bit-identical to a
  // local one-shot spkadd of the same updates.
  EXPECT_EQ(snap.sum, spkadd::core::spkadd(updates));
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 0u);
}

TEST(Daemon, ManyConcurrentConnectionsFoldBitIdentically) {
  // 8 pipelined connections hammer one tenant; the folded result must
  // be bit-identical to a one-shot spkadd over every update (integer
  // values make addition exact so interleaving cannot matter).
  constexpr int kClients = 8;
  constexpr int kPerClient = 6;
  DaemonServer server(test_config());
  std::vector<std::vector<Csc>> streams(kClients);
  std::vector<Csc> all;
  for (int c = 0; c < kClients; ++c)
    for (int i = 0; i < kPerClient; ++i) {
      streams[static_cast<std::size_t>(c)].push_back(integer_matrix(
          static_cast<std::uint64_t>(c * 100 + i)));
      all.push_back(streams[static_cast<std::size_t>(c)].back());
    }
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      Client client("127.0.0.1", server.port());
      for (const auto& u : streams[static_cast<std::size_t>(c)])
        client.submit_async("shared", 25, u);
      EXPECT_EQ(client.collect_acks(kPerClient),
                static_cast<std::size_t>(kPerClient));
      EXPECT_EQ(client.drain(), Status::kOk);
    });
  for (auto& t : threads) t.join();
  Client client("127.0.0.1", server.port());
  const auto snap = client.snapshot("shared");
  ASSERT_EQ(snap.status, Status::kOk);
  EXPECT_EQ(snap.sum, spkadd::core::spkadd(all));
  const std::string json = client.stats_json();
  EXPECT_EQ(json_field(json, "protocol_errors"), 0u);
  EXPECT_EQ(json_field(json, "applied"),
            static_cast<std::uint64_t>(kClients * kPerClient));
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.connections_accepted,
            static_cast<std::uint64_t>(kClients + 1));
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// ------------------------------------------------------ error handling
TEST(Daemon, GarbageBytesGetErrorResponseAndConnectionCloses) {
  DaemonServer server(test_config());
  Client bad("127.0.0.1", server.port());
  bad.send_raw("this is not an SPKN frame at all........");
  const Response resp = bad.recv_response();
  EXPECT_EQ(resp.status, Status::kBadMagic);
  // Framing is unrecoverable: the server closes after the response.
  EXPECT_THROW((void)bad.recv_response(), std::runtime_error);
  // The error is accounted against exactly that connection.
  Client good("127.0.0.1", server.port());
  EXPECT_EQ(good.submit("t", 5, integer_matrix(1)), Status::kOk);
  server.stop();
  const auto stats = server.stats();
  EXPECT_EQ(stats.protocol_errors, 1u);
  std::uint64_t conns_with_errors = 0;
  for (const auto& c : stats.connections)
    if (c.errors != 0) ++conns_with_errors;
  EXPECT_EQ(conns_with_errors, 1u);
}

TEST(Daemon, BadMatrixPayloadKeepsConnectionUsable) {
  DaemonServer server(test_config());
  Client client("127.0.0.1", server.port());
  Request req;
  req.verb = Verb::kSubmit;
  req.tenant = "t";
  req.arg = 5;
  req.payload = "junk that is not an SPKB container";
  std::string wire;
  encode_request(req, wire);
  client.send_raw(wire);
  EXPECT_EQ(client.recv_response().status, Status::kBadPayload);
  // The frame was well delimited, so the same connection still works.
  EXPECT_EQ(client.submit("t", 5, integer_matrix(1)), Status::kOk);
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 1u);
}

TEST(Daemon, RequestLevelErrorsAreAnsweredInline) {
  DaemonServer server(test_config());
  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.snapshot("ghost").status, Status::kUnknownTenant);
  EXPECT_EQ(client.submit("t", 15, integer_matrix(1)), Status::kOk);
  EXPECT_EQ(client.drain(), Status::kOk);
  EXPECT_EQ(client.snapshot("t", 99).status, Status::kBadWindow);
  EXPECT_EQ(client.submit("t", 15,
                          spkadd::testing::random_matrix(7, 7, 5, 1)),
            Status::kShapeMismatch);
  // The connection survived all three request-level errors.
  EXPECT_EQ(client.snapshot("t").status, Status::kOk);
}

TEST(Daemon, ExpiredSubmitsAreCountedOverTheWire) {
  DaemonServer server(test_config());
  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.submit("t", 75, integer_matrix(1)), Status::kOk);
  EXPECT_EQ(client.drain(), Status::kOk);
  // Bucket 0 is far behind the live ring [4..7]: accepted on the wire
  // (expiry is decided at fold time), then rejected and counted.
  EXPECT_EQ(client.submit("t", 5, integer_matrix(2)), Status::kOk);
  EXPECT_EQ(client.drain(), Status::kOk);
  const std::string json = client.stats_json();
  EXPECT_EQ(json_field(json, "expired"), 1u);
  EXPECT_EQ(json_field(json, "applied"), 1u);
}

// ------------------------------------------------------------ shutdown
TEST(Daemon, ShutdownDrainsInFlightSubmits) {
  DaemonServer server(test_config());
  Client client("127.0.0.1", server.port());
  constexpr std::uint64_t kUpdates = 12;
  for (std::uint64_t i = 0; i < kUpdates; ++i)
    client.submit_async("t", 15, integer_matrix(i));
  EXPECT_EQ(client.collect_acks(kUpdates), kUpdates);
  // stop() must fold everything already accepted before joining.
  server.stop();
  const auto stats = server.service().stats();
  EXPECT_EQ(stats.applied, kUpdates);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(Daemon, ConnectionsOverTheCapAreRejected) {
  auto cfg = test_config();
  cfg.max_connections = 1;
  DaemonServer server(cfg);
  Client first("127.0.0.1", server.port());
  EXPECT_EQ(first.submit("t", 5, integer_matrix(1)), Status::kOk);
  Client second("127.0.0.1", server.port());
  // The server accepts and immediately closes the over-cap socket, so
  // the first read reports EOF.
  EXPECT_THROW((void)second.recv_response(), std::runtime_error);
  server.stop();
  EXPECT_EQ(server.stats().connections_rejected, 1u);
}

// ------------------------------------------------------- observability
TEST(Daemon, MetricsVerbServesPrometheusExposition) {
  spkadd::obs::MetricsRegistry registry;  // isolated from other tests
  auto cfg = test_config();
  cfg.service.metrics = &registry;
  DaemonServer server(cfg);
  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.submit("acme", 15, integer_matrix(1)), Status::kOk);
  EXPECT_EQ(client.drain(), Status::kOk);
  EXPECT_EQ(client.snapshot("acme").status, Status::kOk);

  Status status = Status::kInternal;
  const std::string text = client.metrics_text(&status);
  EXPECT_EQ(status, Status::kOk);
  // The core families the scrape must carry (docs/OBSERVABILITY.md).
  EXPECT_NE(text.find("# TYPE spkadd_daemon_requests_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("spkadd_daemon_requests_total{verb=\"submit\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE spkadd_daemon_request_seconds histogram"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("spkadd_service_applied_total"), std::string::npos)
      << text;
  EXPECT_NE(text.find("spkadd_queue_depth"), std::string::npos) << text;
  EXPECT_NE(text.find(
                "spkadd_tenant_live_buckets{service=\"windowed\","
                "tenant=\"acme\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("spkadd_daemon_connections_open 1"),
            std::string::npos)
      << text;

  // The verb is accounted like any other request.
  const std::string json = client.stats_json();
  EXPECT_EQ(json_field(json, "requests_metrics"), 1u);
}

TEST(Daemon, HttpGetMetricsOnTheSamePort) {
  spkadd::obs::MetricsRegistry registry;
  auto cfg = test_config();
  cfg.service.metrics = &registry;
  DaemonServer server(cfg);
  {
    Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.submit("acme", 15, integer_matrix(2)), Status::kOk);
    EXPECT_EQ(client.drain(), Status::kOk);
  }

  const std::string resp = http_get(server.port(), "/metrics");
  EXPECT_EQ(resp.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << resp;
  EXPECT_NE(resp.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << resp;
  EXPECT_NE(resp.find("spkadd_service_submitted_total"), std::string::npos)
      << resp;
  EXPECT_NE(resp.find("spkadd_ingest_bursts_total"), std::string::npos)
      << resp;

  // Counters are monotone across scrapes, and scrapes count themselves.
  const std::string again = http_get(server.port(), "/metrics");
  EXPECT_NE(again.find("spkadd_service_submitted_total"),
            std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_EQ(missing.rfind("HTTP/1.0 404 Not Found\r\n", 0), 0u) << missing;

  server.stop();
  EXPECT_EQ(server.stats().requests_metrics, 2u);
}

TEST(Daemon, TracedSubmitCarriesItsSpanChain) {
  using spkadd::obs::Span;
  using spkadd::obs::Stage;
  spkadd::obs::Tracer& tracer = spkadd::obs::Tracer::global();
  tracer.clear();
  tracer.set_enabled(true);
  {
    DaemonServer server(test_config());
    Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.submit("t", 15, integer_matrix(1)), Status::kOk);
    EXPECT_EQ(client.drain(), Status::kOk);
    EXPECT_EQ(client.snapshot("t").status, Status::kOk);
    server.stop();
  }
  tracer.set_enabled(false);
  // recent() is ordered by span start, so one op's chain reads in
  // pipeline order: decoded on the poll thread, folded on a worker.
  const std::vector<Span> spans = tracer.recent();
  std::uint64_t op = 0;
  for (const Span& s : spans)
    if (s.stage == Stage::kWireDecode) op = s.op_id;
  ASSERT_NE(op, 0u);
  std::vector<Stage> chain;
  bool snapshot_span = false;
  for (const Span& s : spans) {
    if (s.op_id == op) chain.push_back(s.stage);
    snapshot_span = snapshot_span || s.stage == Stage::kSnapshot;
  }
  EXPECT_EQ(chain, (std::vector<Stage>{Stage::kWireDecode,
                                       Stage::kBurstEnqueue,
                                       Stage::kQueueWait,
                                       Stage::kShardFold}));
  EXPECT_TRUE(snapshot_span);
  tracer.clear();
}

TEST(Daemon, StatsJsonEscapesTenantNames) {
  auto cfg = test_config();
  cfg.service.metrics = nullptr;  // metrics off: stats must still work
  DaemonServer server(cfg);
  Client client("127.0.0.1", server.port());
  EXPECT_EQ(client.submit("we\"ird", 15, integer_matrix(3)), Status::kOk);
  EXPECT_EQ(client.drain(), Status::kOk);
  const std::string json = client.stats_json();
  EXPECT_NE(json.find("\"we\\\"ird\""), std::string::npos) << json;
  // Disabled registry: the metrics verb answers an empty exposition.
  Status status = Status::kInternal;
  EXPECT_EQ(client.metrics_text(&status), "");
  EXPECT_EQ(status, Status::kOk);
}

}  // namespace
