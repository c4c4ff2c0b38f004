#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/json.hpp"

namespace spkadd::net {

namespace {

using TimedUpdate = service::WindowedAggService::TimedUpdate;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw std::runtime_error("DaemonServer: fcntl(O_NONBLOCK) failed");
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string("DaemonServer: ") + what + ": " +
                           std::strerror(errno));
}

/// Drain conn.out with nonblocking sends. Returns false on a write
/// error (the connection is unusable).
bool try_flush(int fd, std::string& out) {
  while (!out.empty()) {
    const ssize_t n =
        ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

DaemonServer::DaemonServer(ServerConfig config)
    : config_(std::move(config)), service_(config_.service) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(),
                  &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("DaemonServer: bad bind address '" +
                             config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) < 0 ||
      ::listen(listen_fd_, 128) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("bind/listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &len) < 0)
    throw_errno("getsockname");
  port_ = ntohs(bound.sin_port);
  set_nonblocking(listen_fd_);
  if (::pipe(wake_fds_) < 0) throw_errno("pipe");
  set_nonblocking(wake_fds_[0]);
  set_nonblocking(wake_fds_[1]);
  poll_thread_ = std::thread([this] { poll_loop(); });
  if (config_.service.metrics != nullptr) {
    collector_ = config_.service.metrics->add_collector(
        [this](obs::CollectorSink& sink) { export_metrics(sink); });
  }
}

DaemonServer::~DaemonServer() { stop(); }

void DaemonServer::stop() {
  std::call_once(stop_once_, [this] {
    stop_requested_.store(true, std::memory_order_seq_cst);
    const char byte = 0;
    [[maybe_unused]] const ssize_t n = ::write(wake_fds_[1], &byte, 1);
    poll_thread_.join();
    ::close(listen_fd_);
    ::close(wake_fds_[0]);
    ::close(wake_fds_[1]);
    listen_fd_ = wake_fds_[0] = wake_fds_[1] = -1;
  });
}

void DaemonServer::poll_loop() {
  std::vector<pollfd> pfds;
  std::vector<TimedUpdate> burst;
  while (!stop_requested_.load(std::memory_order_seq_cst)) {
    pfds.clear();
    pfds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    pfds.push_back(pollfd{listen_fd_, POLLIN, 0});
    // accept_ready() appends to conns_ mid-cycle; only these first
    // n_polled connections have a pollfd (and revents) this cycle.
    const std::size_t n_polled = conns_.size();
    for (const auto& conn : conns_) {
      short events = 0;
      if (!conn->closing) events |= POLLIN;
      if (!conn->out.empty()) events |= POLLOUT;
      pfds.push_back(pollfd{conn->fd, events, 0});
    }
    const int ready = ::poll(pfds.data(), pfds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable; shut down below
    }
    if (pfds[0].revents != 0) {
      char sink[64];
      while (::read(wake_fds_[0], sink, sizeof(sink)) > 0) {
      }
    }
    if (stop_requested_.load(std::memory_order_seq_cst)) break;
    if (pfds[1].revents != 0) accept_ready();

    burst.clear();
    for (std::size_t i = 0; i < n_polled; ++i) {
      Conn& conn = *conns_[i];
      const short rev = pfds[i + 2].revents;
      if (rev == 0) continue;
      if ((rev & (POLLERR | POLLNVAL)) != 0) {
        close_conn(conn);
        continue;
      }
      if ((rev & (POLLIN | POLLHUP)) != 0 && !conn.closing) {
        if (!service_conn(conn, burst)) {
          // EOF or read error: serve what arrived, answer, then drop.
          conn.closing = true;
        }
      }
    }
    flush_burst(burst);
    for (auto& conn : conns_) {
      if (conn->fd < 0) continue;
      if (!try_flush(conn->fd, conn->out)) {
        close_conn(*conn);
        continue;
      }
      if (conn->closing && conn->out.empty()) close_conn(*conn);
    }
    std::erase_if(conns_,
                  [](const std::unique_ptr<Conn>& c) { return c->fd < 0; });
  }

  // Clean shutdown: serve every complete frame already buffered, fold
  // everything in flight, then flush responses within the grace period.
  burst.clear();
  for (auto& conn : conns_) {
    if (conn->fd >= 0 && !conn->closing) process_frames(*conn, burst);
  }
  flush_burst(burst);
  service_.drain();
  service_.stop();
  flush_pending_writes();
  for (auto& conn : conns_) {
    if (conn->fd >= 0) close_conn(*conn);
  }
  conns_.clear();
}

void DaemonServer::accept_ready() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    if (conns_.size() >= config_.max_connections) {
      conn_rejected_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = next_conn_id_++;
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ConnectionStats& cs = conn_stats_[conn->id];
      cs.id = conn->id;
      cs.open = true;
    }
    conns_.push_back(std::move(conn));
  }
}

bool DaemonServer::service_conn(Conn& conn,
                                std::vector<TimedUpdate>& burst) {
  bool alive = true;
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {  // EOF: serve buffered frames, then report dead
      alive = false;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    alive = false;
    break;
  }
  process_frames(conn, burst);
  return alive;
}

void DaemonServer::process_frames(Conn& conn,
                                  std::vector<TimedUpdate>& burst) {
  while (!conn.in.empty() && !conn.closing) {
    // SPKN frames start with the magic's 'S'; a leading 'G' is a plain
    // HTTP GET (the Prometheus scrape path — no sidecar needed). Any
    // other first byte falls through to the bad-magic handling below.
    if (conn.in.front() == 'G') {
      handle_http(conn);
      return;
    }
    Request req;
    std::size_t n = 0;
    try {
      n = try_decode_request(conn.in, req);
    } catch (const ProtocolError& e) {
      // Framing-level error: no resynchronization point exists in the
      // stream, so answer the status and close once it drains.
      record_error(conn, e.status);
      conn.in.clear();
      conn.closing = true;
      return;
    }
    if (n == 0) return;  // incomplete frame: wait for more bytes
    conn.in.erase(0, n);
    handle(conn, std::move(req), burst);
  }
}

void DaemonServer::handle(Conn& conn, Request&& req,
                          std::vector<TimedUpdate>& burst) {
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++conn_stats_[conn.id].requests;
  }
  // Per-verb service time: dispatch to response enqueued. The decoder
  // bounded the verb code to kMetrics, so the index below is in range.
  const std::uint64_t t0 = obs::Tracer::now_ns();
  struct TimeVerb {
    obs::LogHistogram& hist;
    std::uint64_t start;
    ~TimeVerb() { hist.record(obs::Tracer::now_ns() - start); }
  } time_verb{
      verb_latency_[static_cast<std::size_t>(req.verb) - 1], t0};
  switch (req.verb) {
    case Verb::kSubmit: {
      req_submit_.fetch_add(1, std::memory_order_relaxed);
      if (req.tenant.empty()) {
        record_error(conn, Status::kBadTenant);
        return;
      }
      obs::Tracer& tracer = obs::Tracer::global();
      obs::OpTrace trace = tracer.begin_op();
      CscMatrix<std::int32_t, double> update;
      try {
        update = decode_matrix(req.payload);
      } catch (const ProtocolError& e) {
        // Frame was well delimited; the connection stays usable.
        record_error(conn, e.status);
        return;
      }
      auto [it, inserted] = shapes_.try_emplace(
          req.tenant, update.rows(), update.cols());
      if (!inserted && (it->second.first != update.rows() ||
                        it->second.second != update.cols())) {
        record_error(conn, Status::kShapeMismatch);
        return;
      }
      if (trace.active())
        tracer.record(trace, obs::Stage::kWireDecode, t0,
                      "tenant=" + req.tenant);
      burst.push_back(TimedUpdate{std::move(req.tenant), req.arg,
                                  std::move(update), std::move(trace)});
      Response resp;
      resp.arg = 1;
      encode_response(resp, conn.out);
      return;
    }
    case Verb::kSnapshot: {
      req_snapshot_.fetch_add(1, std::memory_order_relaxed);
      if (req.tenant.empty()) {
        record_error(conn, Status::kBadTenant);
        return;
      }
      // Ordering: a connection's own staged submits must be visible
      // (enqueued) before its snapshot request is served.
      flush_burst(burst);
      try {
        auto snap = service_.snapshot(
            req.tenant, static_cast<std::size_t>(req.arg));
        Response resp;
        resp.arg = snap.epoch;
        resp.payload = encode_matrix(snap.sum);
        encode_response(resp, conn.out);
      } catch (const std::invalid_argument&) {
        const Status status =
            req.arg > config_.service.window.live_buckets
                ? Status::kBadWindow
                : Status::kUnknownTenant;
        record_error(conn, status);
      }
      return;
    }
    case Verb::kDrain: {
      req_drain_.fetch_add(1, std::memory_order_relaxed);
      flush_burst(burst);
      service_.drain();
      Response resp;
      resp.arg = service_.stats().applied;
      encode_response(resp, conn.out);
      return;
    }
    case Verb::kStats: {
      req_stats_.fetch_add(1, std::memory_order_relaxed);
      flush_burst(burst);
      Response resp;
      resp.payload = stats_json();
      encode_response(resp, conn.out);
      return;
    }
    case Verb::kMetrics: {
      req_metrics_.fetch_add(1, std::memory_order_relaxed);
      // Flush so a connection's own submits are at least enqueued (and
      // counted) before it scrapes.
      flush_burst(burst);
      Response resp;
      resp.payload = metrics_text();
      encode_response(resp, conn.out);
      return;
    }
  }
  record_error(conn, Status::kBadVerb);  // unreachable after decode
}

void DaemonServer::handle_http(Conn& conn) {
  const std::size_t head_end = conn.in.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    // Incomplete headers: wait, but never buffer an unbounded header
    // block from something that will never finish one.
    if (conn.in.size() > 8192) conn.closing = true;
    return;
  }
  const std::string_view head(conn.in.data(), head_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string_view line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  // "GET <path> HTTP/1.x" — everything else 404s (GETs carry no body,
  // so consuming through the blank line consumes the whole request).
  std::string_view path;
  if (line.size() > 4 && line.substr(0, 4) == "GET ") {
    const std::string_view rest = line.substr(4);
    path = rest.substr(0, rest.find(' '));
  }
  std::ostringstream resp;
  if (path == "/metrics") {
    req_metrics_.fetch_add(1, std::memory_order_relaxed);
    const std::string body = metrics_text();
    resp << "HTTP/1.0 200 OK\r\n"
            "Content-Type: text/plain; version=0.0.4\r\n"
            "Content-Length: "
         << body.size() << "\r\nConnection: close\r\n\r\n"
         << body;
  } else {
    const std::string body = "not found\n";
    resp << "HTTP/1.0 404 Not Found\r\n"
            "Content-Type: text/plain\r\n"
            "Content-Length: "
         << body.size() << "\r\nConnection: close\r\n\r\n"
         << body;
  }
  conn.out += resp.str();
  conn.in.clear();
  conn.closing = true;  // one response per scrape connection
}

void DaemonServer::flush_burst(std::vector<TimedUpdate>& burst) {
  if (burst.empty()) return;
  try {
    service_.submit_burst(burst);
  } catch (const std::exception& e) {
    // Shapes are pre-checked per frame, so this is an embedder-created
    // tenant conflict; salvage the burst update by update.
    std::cerr << "DaemonServer: burst submit failed (" << e.what()
              << "); retrying per update\n";
    for (auto& u : burst) {
      try {
        service_.submit(u.tenant, u.timestamp, std::move(u.update));
      } catch (const std::exception& drop) {
        std::cerr << "DaemonServer: dropped update for tenant '"
                  << u.tenant << "': " << drop.what() << "\n";
      }
    }
  }
  burst.clear();
}

void DaemonServer::record_error(Conn& conn, Status status) {
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++conn_stats_[conn.id].errors;
  }
  Response resp;
  resp.status = status;
  resp.payload = status_name(status);
  encode_response(resp, conn.out);
}

void DaemonServer::close_conn(Conn& conn) {
  if (conn.fd < 0) return;
  ::close(conn.fd);
  conn.fd = -1;
  open_.fetch_sub(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  conn_stats_[conn.id].open = false;
}

void DaemonServer::flush_pending_writes() {
  using clock = std::chrono::steady_clock;
  const auto deadline =
      clock::now() + std::chrono::milliseconds(config_.shutdown_grace_ms);
  for (;;) {
    std::vector<pollfd> pfds;
    for (const auto& conn : conns_) {
      if (conn->fd >= 0 && !conn->out.empty())
        pfds.push_back(pollfd{conn->fd, POLLOUT, 0});
    }
    if (pfds.empty() || clock::now() >= deadline) return;
    if (::poll(pfds.data(), pfds.size(), 50) < 0 && errno != EINTR)
      return;
    for (auto& conn : conns_) {
      if (conn->fd >= 0 && !conn->out.empty() &&
          !try_flush(conn->fd, conn->out))
        close_conn(*conn);
    }
  }
}

ServerStats DaemonServer::stats() const {
  ServerStats out;
  out.connections_accepted = accepted_.load(std::memory_order_relaxed);
  out.connections_open = open_.load(std::memory_order_relaxed);
  out.connections_rejected =
      conn_rejected_.load(std::memory_order_relaxed);
  out.requests_submit = req_submit_.load(std::memory_order_relaxed);
  out.requests_snapshot = req_snapshot_.load(std::memory_order_relaxed);
  out.requests_drain = req_drain_.load(std::memory_order_relaxed);
  out.requests_stats = req_stats_.load(std::memory_order_relaxed);
  out.requests_metrics = req_metrics_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  out.connections.reserve(conn_stats_.size());
  for (const auto& [id, cs] : conn_stats_) out.connections.push_back(cs);
  return out;
}

std::string DaemonServer::stats_json() {
  const ServerStats s = stats();
  const service::WindowedServiceStats w = service_.stats();
  std::ostringstream out;
  out << "{\"connections_accepted\":" << s.connections_accepted
      << ",\"connections_open\":" << s.connections_open
      << ",\"connections_rejected\":" << s.connections_rejected
      << ",\"requests_submit\":" << s.requests_submit
      << ",\"requests_snapshot\":" << s.requests_snapshot
      << ",\"requests_drain\":" << s.requests_drain
      << ",\"requests_stats\":" << s.requests_stats
      << ",\"requests_metrics\":" << s.requests_metrics
      << ",\"protocol_errors\":" << s.protocol_errors
      << ",\"service\":{\"submitted\":" << w.submitted
      << ",\"applied\":" << w.applied << ",\"expired\":" << w.expired
      << ",\"rejected\":" << w.rejected
      << ",\"apply_errors\":" << w.apply_errors
      << ",\"snapshots\":" << w.snapshots
      << ",\"queue_depth\":" << w.queue_depth
      << ",\"queue_high_water\":" << w.queue_high_water
      << ",\"bursts\":" << w.bursts
      << ",\"burst_updates\":" << w.burst_updates << ",\"tenants\":[";
  for (std::size_t i = 0; i < w.tenants.size(); ++i) {
    const auto& [name, ws] = w.tenants[i];
    if (i != 0) out << ",";
    out << "{\"name\":\"" << util::json_escape(name)
        << "\",\"accepted\":" << ws.accepted
        << ",\"expired_rejected\":" << ws.expired_rejected
        << ",\"buckets_opened\":" << ws.buckets_opened
        << ",\"buckets_retired\":" << ws.buckets_retired
        << ",\"snapshots\":" << ws.snapshots
        << ",\"fold_flushes\":" << ws.fold_flushes
        << ",\"live_buckets\":" << ws.live_buckets
        << ",\"newest_bucket\":" << ws.newest_bucket << "}";
  }
  out << "]}}";
  return out.str();
}

std::string DaemonServer::metrics_text() const {
  return config_.service.metrics != nullptr
             ? config_.service.metrics->render_prometheus()
             : std::string();
}

void DaemonServer::export_metrics(obs::CollectorSink& sink) const {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto verb = [&](const char* name, const std::atomic<
                                              std::uint64_t>& count,
                        Verb v) {
    sink.counter("spkadd_daemon_requests_total",
                 "Requests dispatched, by verb", {{"verb", name}},
                 d(count.load(std::memory_order_relaxed)));
    sink.histogram(
        "spkadd_daemon_request_seconds",
        "Request service time (dispatch to response enqueued), by verb",
        {{"verb", name}},
        verb_latency_[static_cast<std::size_t>(v) - 1],
        obs::Unit::kSeconds);
  };
  verb("submit", req_submit_, Verb::kSubmit);
  verb("snapshot", req_snapshot_, Verb::kSnapshot);
  verb("drain", req_drain_, Verb::kDrain);
  verb("stats", req_stats_, Verb::kStats);
  verb("metrics", req_metrics_, Verb::kMetrics);
  sink.gauge("spkadd_daemon_connections_open",
             "Connections currently open", {},
             d(open_.load(std::memory_order_relaxed)));
  sink.counter("spkadd_daemon_connections_accepted_total",
               "Connections ever accepted", {},
               d(accepted_.load(std::memory_order_relaxed)));
  sink.counter("spkadd_daemon_connections_rejected_total",
               "Connections refused over max_connections", {},
               d(conn_rejected_.load(std::memory_order_relaxed)));
  sink.counter("spkadd_daemon_protocol_errors_total",
               "Protocol errors across all connections", {},
               d(protocol_errors_.load(std::memory_order_relaxed)));
}

}  // namespace spkadd::net
