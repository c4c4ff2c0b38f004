// The four closed-loop workloads. Each loads one layer heavily and
// bypasses others (README.md has the map); every output is compared bit
// for bit, outside the timed region, with a reference built from the
// generated inputs.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <thread>

#include "core/accumulator.hpp"
#include "core/spkadd.hpp"
#include "gen/workload.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "service/agg_service.hpp"
#include "workload.hpp"

namespace perfbench {

namespace core = spkadd::core;
namespace gen = spkadd::gen;
namespace net = spkadd::net;
namespace service = spkadd::service;

namespace {

bool bit_equal(const Csc& a, const Csc& b) {
  const auto same = [](auto x, auto y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
  };
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         same(a.col_ptr(), b.col_ptr()) && same(a.row_idx(), b.row_idx()) &&
         same(a.values(), b.values());
}

std::vector<Csc> make_addends(gen::Pattern pattern, int row_log2,
                              int col_log2, std::int64_t d, int k,
                              std::uint64_t seed) {
  gen::WorkloadSpec spec;
  spec.pattern = pattern;
  spec.rows = std::int64_t{1} << row_log2;
  spec.cols = std::int64_t{1} << col_log2;
  spec.avg_nnz_per_col = d;
  spec.k = k;
  spec.seed = seed;
  return gen::make_workload(spec);
}

/// The service workloads' updates: ER, m=2^16, n=2^8, d=8 (~2K nnz each),
/// values snapped to integers in [1, 9] so every sum is exact and any
/// fold order yields the same bits.
std::vector<Csc> integer_updates(int k, std::uint64_t seed) {
  std::vector<Csc> updates = make_addends(gen::Pattern::ER, 16, 8, 8, k, seed);
  for (Csc& m : updates)
    for (double& v : m.mutable_values()) v = 1.0 + std::floor(v * 8.0);
  return updates;
}

/// References come from the k-way heap merge: a different kernel from the
/// ones the measured paths pick, and bit-identical to all of them (every
/// kernel is a strict left fold).
Csc reference_sum(const std::vector<const Csc*>& ptrs) {
  core::Options opts;
  opts.method = core::Method::Heap;
  return core::spkadd(core::MatrixPtrs<std::int32_t, double>(ptrs), opts);
}

Csc reference_sum(const std::vector<Csc>& set) {
  std::vector<const Csc*> ptrs;
  for (const Csc& m : set) ptrs.push_back(&m);
  return reference_sum(ptrs);
}

/// `m` with every value multiplied by `times` (exact on integers).
Csc scaled(const Csc& m, double times) {
  Csc out = m;
  for (double& v : out.mutable_values()) v *= times;
  return out;
}

class Deadline {
 public:
  explicit Deadline(double seconds)
      : end_ns_(now_ns() + static_cast<std::uint64_t>(seconds * 1e9)) {}
  [[nodiscard]] bool passed() const { return now_ns() >= end_ns_; }
  [[nodiscard]] std::uint64_t end_ns() const { return end_ns_; }

 private:
  std::uint64_t end_ns_;
};

/// Rates of a phase whose operations take `op_ms` each and move `nnz`
/// input nonzeros and `addends` addends per operation.
PhaseResult per_op_rates(const std::vector<double>& op_ms, double nnz,
                         double addends) {
  PhaseResult r;
  const double med_s = median(op_ms) * 1e-3;
  r.gnnz_per_s = nnz / med_s * 1e-9;
  r.updates_per_s = addends / med_s;
  r.visible_p50_ms = median(op_ms);
  r.ops = op_ms.size();
  r.op_p99_ms = quantile(op_ms, 0.99);
  return r;
}

// ---------------------------------------------------------------------------
// oneshot-rmat: core::spkadd, Method::Auto, on k=64 Graph500-RMAT addends.

class OneshotRmat final : public Workload {
 public:
  [[nodiscard]] Layout layout() const override { return {kOmpTeam, 0, 1, 0}; }

  void generate(std::uint64_t seed) override {
    addends_ = make_addends(gen::Pattern::RMAT, 16, 10, 16, 64, seed);
    in_nnz_ = static_cast<double>(gen::total_input_nnz(addends_));
    reference_ = reference_sum(addends_);
  }

  void setup(Lane* lane) override {
    for (std::uint64_t i = 0; i < 5; ++i) call(lane, i);
  }

  PhaseResult measure(double seconds, Tracer* tracer) override {
    Lane* lane = tracer != nullptr ? tracer->add_lane("loop") : nullptr;
    std::vector<double> ms;
    const Deadline end(seconds);
    for (std::uint64_t op = 0; !end.passed(); ++op) ms.push_back(call(lane, op));
    return per_op_rates(ms, in_nnz_, 64.0);
  }

  void ledger(Lane* lane, LayerCounts& counts) override {
    replay_core(addends_, reference_, lane, counts, tally);
    replay_accumulator(addends_, reference_, lane, counts, tally);
    probe_agg(addends_, reference_, lane, counts, tally);
    replay_window(addends_, lane, counts, tally);
    replay_codec(addends_, reference_, lane, counts, tally);
    probe_daemon(addends_, lane, counts, tally);
  }

  void finish() override {}

 private:
  double call(Lane* lane, std::uint64_t op) {
    Csc out;
    const std::uint64_t t0 = now_ns();
    {
      Scope s(lane, "core.spkadd", op);
      out = core::spkadd(std::span<const Csc>(addends_));
    }
    const double ms = ns_to_ms(now_ns() - t0);
    tally.check(bit_equal(out, reference_), "oneshot-rmat call output");
    return ms;
  }

  std::vector<Csc> addends_;
  double in_nnz_ = 0;
  Csc reference_;
};

// ---------------------------------------------------------------------------
// stream-er: one Accumulator folding k=256 borrowed ER addends per pass.

class StreamEr final : public Workload {
 public:
  [[nodiscard]] Layout layout() const override { return {kOmpTeam, 0, 1, 0}; }

  void generate(std::uint64_t seed) override {
    addends_ = make_addends(gen::Pattern::ER, 16, 10, 4, 256, seed);
    in_nnz_ = static_cast<double>(gen::total_input_nnz(addends_));
    reference_ = core::spkadd(addends_);
  }

  void setup(Lane* lane) override {
    acc_ = std::make_unique<core::Accumulator<>>(addends_.front().rows(),
                                                 addends_.front().cols());
    pass(lane, 0);
  }

  PhaseResult measure(double seconds, Tracer* tracer) override {
    Lane* lane = tracer != nullptr ? tracer->add_lane("loop") : nullptr;
    std::vector<double> pass_ms;
    const Deadline end(seconds);
    for (std::uint64_t op = 1; !end.passed(); ++op)
      pass_ms.push_back(pass(lane, op));
    return per_op_rates(pass_ms, in_nnz_,
                        static_cast<double>(addends_.size()));
  }

  void ledger(Lane* lane, LayerCounts& counts) override {
    replay_core(addends_, reference_, lane, counts, tally);
    replay_accumulator(addends_, reference_, lane, counts, tally);
    probe_agg(addends_, reference_, lane, counts, tally);
    replay_window(addends_, lane, counts, tally);
    replay_codec(addends_, reference_, lane, counts, tally);
    probe_daemon(addends_, lane, counts, tally);
  }

  void finish() override { acc_.reset(); }

 private:
  /// One pass: add() every addend, then finalize(); returns its time.
  double pass(Lane* lane, std::uint64_t op) {
    Csc out;
    std::uint64_t t0 = 0, t1 = 0;
    {
      Scope p(lane, "stream.pass", op);
      t0 = now_ns();
      for (const Csc& m : addends_) {
        Scope s(lane, "accumulator.stage", op);
        const std::uint64_t before = acc_->stats().flushes;
        acc_->add(m);
        if (acc_->stats().flushes != before) s.rename("accumulator.fold");
      }
      Scope s(lane, "accumulator.finalize", op);
      out = acc_->finalize();
      t1 = now_ns();
    }
    tally.check(bit_equal(out, reference_), "stream-er pass output");
    return ns_to_ms(t1 - t0);
  }

  std::vector<Csc> addends_;
  double in_nnz_ = 0;
  Csc reference_;
  std::unique_ptr<core::Accumulator<>> acc_;
};

// ---------------------------------------------------------------------------
// shards-er: AggService, 2 shards x 2 workers, rounds of 64 submits + drain.

class ShardsEr final : public Workload {
 public:
  /// One producer; 2 workers plus the burst flusher.
  [[nodiscard]] Layout layout() const override { return {0, 3, 1, 0}; }

  void generate(std::uint64_t seed) override {
    set_ = integer_updates(64, seed);
    round_nnz_ = static_cast<double>(gen::total_input_nnz(set_));
    set_sum_ = reference_sum(set_);
  }

  void setup(Lane* lane) override {
    registry_ = std::make_unique<spkadd::obs::MetricsRegistry>();
    service::ServiceConfig cfg;
    cfg.shards = 2;
    cfg.workers = 2;
    cfg.options.threads = 1;
    cfg.metrics = registry_.get();
    svc_ = std::make_unique<service::AggService>(cfg);
    rounds_ = 0;
    // The first round builds the running sum (~130K nnz, where it
    // saturates); one round alone (~25 ms) was too short to time steadily.
    for (std::uint64_t op = 0; op < kWarmupRounds; ++op) round(lane, op);
  }

  PhaseResult measure(double seconds, Tracer* tracer) override {
    Lane* lane = tracer != nullptr ? tracer->add_lane("loop") : nullptr;
    std::vector<double> ms;
    const Deadline end(seconds);
    for (std::uint64_t op = kWarmupRounds; !end.passed(); ++op)
      ms.push_back(round(lane, op));
    return per_op_rates(ms, round_nnz_, static_cast<double>(set_.size()));
  }

  void ledger(Lane* lane, LayerCounts& counts) override {
    const Csc expect = scaled(set_sum_, static_cast<double>(rounds_));
    for (std::uint64_t i = 0; i < 3; ++i) {
      service::AggService::Snapshot snap;
      {
        Scope s(lane, "agg.snapshot", i);
        snap = svc_->snapshot(kTenant);
      }
      tally.check(bit_equal(snap.sum, expect), "shards-er snapshot");
    }
    const service::ServiceStats st = svc_->stats();
    counts.agg_applied_p50_ms = st.latency.p50 * 1e3;
    counts.agg_flushes_deadline = st.ingest.flushes_deadline;
    scrape_service(registry_->render_prometheus(), "agg", counts);
    replay_core(set_, set_sum_, lane, counts, tally);
    replay_accumulator(set_, set_sum_, lane, counts, tally);
    replay_window(set_, lane, counts, tally);
    replay_codec(set_, expect, lane, counts, tally);
    probe_daemon(set_, lane, counts, tally);
  }

  void finish() override {
    svc_->drain();
    const service::AggService::Snapshot snap = svc_->snapshot(kTenant);
    tally.check(bit_equal(snap.sum,
                          scaled(set_sum_, static_cast<double>(rounds_))),
                "shards-er final drained snapshot");
    svc_->stop();
    const service::ServiceStats st = svc_->stats();
    tally.check(st.apply_errors == 0 && st.rejected == 0,
                "shards-er service errors");
    svc_.reset();
    registry_.reset();
  }

 private:
  static constexpr const char* kTenant = "shards";
  static constexpr std::uint64_t kWarmupRounds = 8;

  /// 64 submits then drain(); returns the round time.
  double round(Lane* lane, std::uint64_t op) {
    std::vector<Csc> batch = set_;  // submit() takes ownership
    std::size_t accepted = 0;
    const std::uint64_t t0 = now_ns();
    {
      Scope r(lane, "shards.round", op);
      for (Csc& m : batch) {
        Scope s(lane, "agg.submit", op);
        accepted += svc_->submit(kTenant, std::move(m)) ? 1 : 0;
      }
      Scope s(lane, "agg.drain", op);
      svc_->drain();
    }
    const double ms = ns_to_ms(now_ns() - t0);
    tally.count(set_.size());
    tally.check(accepted == set_.size(), "shards-er submits accepted");
    ++rounds_;
    return ms;
  }

  std::vector<Csc> set_;
  double round_nnz_ = 0;
  Csc set_sum_;
  std::unique_ptr<spkadd::obs::MetricsRegistry> registry_;
  std::unique_ptr<service::AggService> svc_;
  std::uint64_t rounds_ = 0;
};

// ---------------------------------------------------------------------------
// wire-mixed: localhost DaemonServer, a pipelining writer and a
// read-your-writes reader.

class WireMixed final : public Workload {
 public:
  /// Writer and reader threads; the poll thread and one worker.
  [[nodiscard]] Layout layout() const override { return {0, 2, 2, 2}; }

  void generate(std::uint64_t seed) override {
    writer_set_ = integer_updates(kPerBucket, seed);
    reader_set_ = integer_updates(kPerBucket * kLive, seed + 1);
    reader_window_ = reference_sum(reader_set_);
  }

  void setup(Lane* lane) override {
    registry_ = std::make_unique<spkadd::obs::MetricsRegistry>();
    net::ServerConfig cfg;
    cfg.service.workers = 1;
    cfg.service.window.options.threads = 1;
    cfg.service.metrics = registry_.get();
    server_ = std::make_unique<net::DaemonServer>(cfg);
    writer_ = std::make_unique<net::Client>("127.0.0.1", server_->port());
    reader_ = std::make_unique<net::Client>("127.0.0.1", server_->port());
    writer_sent_ = reader_sent_ = 0;
    // Pre-fill both windows: every live bucket holds its 64 updates.
    std::uint64_t op = 0;
    while (writer_sent_ < kPerBucket * kLive)
      send_burst(*writer_, false, writer_sent_, lane, op++);
    while (reader_sent_ < kPerBucket * kLive)
      send_burst(*reader_, true, reader_sent_, lane, op++);
    Scope s(lane, "net.drain", op);
    tally.check(reader_->drain() == net::Status::kOk, "wire-mixed drain");
  }

  PhaseResult measure(double seconds, Tracer* tracer) override {
    Lane* wlane = tracer != nullptr ? tracer->add_lane("writer") : nullptr;
    Lane* rlane = tracer != nullptr ? tracer->add_lane("reader") : nullptr;
    std::vector<double> burst_ms, cycle_ms;
    std::vector<std::uint64_t> writer_acks, reader_acks;  // ack times
    const std::uint64_t start = now_ns();
    const Deadline end(seconds);
    // A client error must not escape a thread (std::terminate): it ends
    // that connection's loop and counts as a failed operation.
    const auto guarded = [this](const char* what, auto&& body) {
      return [this, what, body] {
        try {
          body();
        } catch (const std::exception& e) {
          std::cerr << "perfbench: " << what << ": " << e.what() << "\n";
          tally.check(false, what);
        }
      };
    };
    std::thread writer(guarded("wire-mixed writer", [&] {
      for (std::uint64_t op = 0; !end.passed(); ++op) {
        Scope s(wlane, "wire.burst", op);
        const Acked a = send_burst(*writer_, false, writer_sent_, wlane, op);
        burst_ms.push_back(ns_to_ms(a.acked_ns - a.flush_ns));
        writer_acks.push_back(a.acked_ns);
      }
    }));
    std::thread reader(guarded("wire-mixed reader", [&] {
      for (std::uint64_t op = 0; !end.passed(); ++op) {
        net::Client::SnapshotResult snap;
        std::uint64_t t0 = 0, t1 = 0;
        {
          Scope s(rlane, "wire.cycle", op);
          const Acked a = send_burst(*reader_, true, reader_sent_, rlane, op);
          t0 = a.flush_ns;
          reader_acks.push_back(a.acked_ns);
          {
            Scope d(rlane, "net.drain", op);
            tally.check(reader_->drain() == net::Status::kOk,
                        "wire-mixed drain");
          }
          Scope q(rlane, "net.snapshot", op);
          snap = reader_->snapshot(kReaderTenant, 0);
          t1 = now_ns();
        }
        cycle_ms.push_back(ns_to_ms(t1 - t0));
        tally.check(snap.status == net::Status::kOk && snap.sum.nnz() > 0,
                    "wire-mixed reader snapshot");
      }
    }));
    writer.join();
    reader.join();

    PhaseResult r;
    r.visible_p50_ms = median(cycle_ms);
    r.op_p99_ms = quantile(burst_ms, 0.99);
    r.ops = burst_ms.size() + cycle_ms.size();
    // Acked-update rate per interval across both connections: in each
    // interval, the updates acked after its first ack divided by the time
    // from its first to its last ack (every ack closes a burst of kBurst).
    std::vector<std::uint64_t> acks = writer_acks;
    acks.insert(acks.end(), reader_acks.begin(), reader_acks.end());
    std::sort(acks.begin(), acks.end());
    std::vector<double> rates;
    for (std::size_t i = 0; i < acks.size();) {
      const std::uint64_t bin = (acks[i] - start) / kIntervalNs;
      std::size_t j = i;
      while (j + 1 < acks.size() && (acks[j + 1] - start) / kIntervalNs == bin)
        ++j;
      if (j > i && start + (bin + 1) * kIntervalNs <= end.end_ns())
        rates.push_back(static_cast<double>((j - i) * kBurst) /
                        (static_cast<double>(acks[j] - acks[i]) * 1e-9));
      i = j + 1;
    }
    const double per_update_nnz =
        static_cast<double>(gen::total_input_nnz(writer_set_)) / kPerBucket;
    r.updates_per_s = median(rates);
    r.gnnz_per_s = r.updates_per_s * per_update_nnz * 1e-9;
    return r;
  }

  void ledger(Lane* lane, LayerCounts& counts) override {
    net::Status status = net::Status::kInternal;
    const std::string text = writer_->metrics_text(&status);
    tally.check(status == net::Status::kOk, "wire-mixed scrape");
    scrape_service(text, "windowed", counts);
    scrape_daemon(text, counts);
    replay_core(reader_set_, reader_window_, lane, counts, tally);
    replay_accumulator(reader_set_, reader_window_, lane, counts, tally);
    probe_agg(reader_set_, reader_window_, lane, counts, tally);
    replay_window(reader_set_, lane, counts, tally);
    replay_codec(reader_set_, reader_window_, lane, counts, tally);
  }

  void finish() override {
    tally.check(reader_->drain() == net::Status::kOk, "wire-mixed drain");
    const auto a = reader_->snapshot(kWriterTenant, 0);
    const auto b = reader_->snapshot(kReaderTenant, 0);
    tally.check(a.status == net::Status::kOk &&
                    bit_equal(a.sum, window_reference(false, writer_sent_)),
                "wire-mixed writer window");
    tally.check(b.status == net::Status::kOk &&
                    bit_equal(b.sum, window_reference(true, reader_sent_)),
                "wire-mixed reader window");
    writer_.reset();
    reader_.reset();
    server_->stop();
    const auto st = server_->service().stats();
    tally.check(server_->stats().protocol_errors == 0 && st.expired == 0 &&
                    st.apply_errors == 0,
                "wire-mixed protocol or fold errors");
    server_.reset();
    registry_.reset();
  }

 private:
  static constexpr const char* kWriterTenant = "A";
  static constexpr const char* kReaderTenant = "B";
  static constexpr std::size_t kBurst = 8;
  static constexpr std::size_t kPerBucket = 64;  ///< updates per time bucket
  static constexpr std::size_t kLive = 8;  ///< shipped window: 8 live buckets
  static constexpr std::uint64_t kBucketWidth = 1000;  ///< shipped default
  static constexpr std::uint64_t kIntervalNs = 1'000'000'000;

  struct Acked {
    std::uint64_t flush_ns;  ///< the burst's first byte written
    std::uint64_t acked_ns;  ///< its last ack read
  };

  /// Update number `u` of a tenant's stream. The writer cycles its 64
  /// updates once per bucket; reader bucket b carries the 64 distinct
  /// updates of group b mod 8, so a full reader window holds all 512.
  const Csc& update(bool reader, std::uint64_t u) const {
    if (!reader) return writer_set_[u % kPerBucket];
    const std::uint64_t group = (u / kPerBucket) % kLive;
    return reader_set_[group * kPerBucket + u % kPerBucket];
  }

  /// Pipeline the tenant's next kBurst updates, then wait for their acks
  /// (span net.submit_burst: flush to the last ack).
  Acked send_burst(net::Client& client, bool reader, std::uint64_t& sent,
                   Lane* lane, std::uint64_t op) {
    const char* tenant = reader ? kReaderTenant : kWriterTenant;
    for (std::uint64_t u = sent; u < sent + kBurst; ++u)
      client.submit_async(tenant, (u / kPerBucket) * kBucketWidth,
                          update(reader, u));
    Acked a{};
    std::size_t acks = 0;
    {
      Scope s(lane, "net.submit_burst", op);
      a.flush_ns = now_ns();
      acks = client.collect_acks(kBurst);
      a.acked_ns = now_ns();
    }
    tally.count(kBurst - 1);
    tally.check(acks == kBurst, "wire-mixed acks");
    sent += kBurst;
    return a;
  }

  /// What snapshot(tenant, 0) must hold after `sent` updates: the live
  /// buckets' updates folded in order.
  Csc window_reference(bool reader, std::uint64_t sent) const {
    const std::uint64_t newest = (sent - 1) / kPerBucket;
    const std::uint64_t oldest = newest >= kLive - 1 ? newest - (kLive - 1) : 0;
    std::vector<const Csc*> ptrs;
    for (std::uint64_t u = oldest * kPerBucket; u < sent; ++u)
      ptrs.push_back(&update(reader, u));
    return reference_sum(ptrs);
  }

  std::vector<Csc> writer_set_, reader_set_;
  Csc reader_window_;
  std::unique_ptr<spkadd::obs::MetricsRegistry> registry_;
  std::unique_ptr<net::DaemonServer> server_;
  std::unique_ptr<net::Client> writer_, reader_;
  std::uint64_t writer_sent_ = 0, reader_sent_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "oneshot-rmat") return std::make_unique<OneshotRmat>();
  if (name == "stream-er") return std::make_unique<StreamEr>();
  if (name == "shards-er") return std::make_unique<ShardsEr>();
  if (name == "wire-mixed") return std::make_unique<WireMixed>();
  return nullptr;
}

}  // namespace perfbench
