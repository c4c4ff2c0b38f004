#include "service/window.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/spkadd.hpp"

namespace spkadd::service {

void WindowConfig::validate() const {
  if (bucket_width < 1)
    throw std::invalid_argument(
        "WindowConfig: bucket_width must be >= 1");
  if (live_buckets < 1)
    throw std::invalid_argument(
        "WindowConfig: live_buckets must be >= 1");
  if (batch_window < 1)
    throw std::invalid_argument(
        "WindowConfig: batch_window must be >= 1");
  // A merge-family method with inputs declared unsorted would throw on
  // every single fold; refuse the config instead of the traffic.
  if (core::requires_sorted_inputs(options.method) && !options.inputs_sorted)
    throw std::invalid_argument(
        "WindowConfig: method requires sorted inputs but "
        "options.inputs_sorted is false");
}

TenantWindow::TenantWindow(std::int32_t rows, std::int32_t cols,
                           WindowConfig config)
    : rows_(rows), cols_(cols), config_(std::move(config)) {
  config_.validate();
  // One OpCounters per window, never shared across tenants: folds of
  // different tenants run concurrently under different locks.
  config_.options.counters = &counters_;
}

bool TenantWindow::submit(std::uint64_t ts, Matrix&& update) {
  if (update.rows() != rows_ || update.cols() != cols_)
    throw std::invalid_argument(
        "TenantWindow: update is not conformant");
  const std::uint64_t id = bucket_id(ts);
  if (have_any_ && id < oldest_live_id()) {
    ++expired_rejected_;  // never folded, never staged
    return false;
  }
  if (!have_any_ || id > newest_id_) rotate_to(id);
  Bucket& bucket = bucket_for(id);
  bucket.acc.add(std::move(update));
  ++bucket.updates;
  ++accepted_;
  return true;
}

void TenantWindow::advance_to(std::uint64_t ts) {
  const std::uint64_t id = bucket_id(ts);
  if (!have_any_ || id > newest_id_) rotate_to(id);
}

void TenantWindow::rotate_to(std::uint64_t id) {
  newest_id_ = id;
  have_any_ = true;
  // Retirement IS the pop: the bucket's accumulator (running partial
  // sum and all) is dropped whole — no subtraction, no fold, no visit
  // of the surviving buckets.
  while (!buckets_.empty() && buckets_.front().id < oldest_live_id()) {
    retired_flushes_ += buckets_.front().acc.stats().flushes;
    retired_peak_staged_ = std::max(
        retired_peak_staged_, buckets_.front().acc.stats().peak_staged_nnz);
    buckets_.pop_front();
    ++buckets_retired_;
  }
}

TenantWindow::Bucket& TenantWindow::bucket_for(std::uint64_t id) {
  // Ascending-id ring, only materialized ids. Windows are small
  // (live_buckets buckets at most), so a linear scan beats a map.
  auto it = buckets_.begin();
  while (it != buckets_.end() && it->id < id) ++it;
  if (it != buckets_.end() && it->id == id) return *it;
  it = buckets_.emplace(it, id, rows_, cols_, config_.options,
                        config_.batch_window);
  ++buckets_opened_;
  return *it;
}

TenantWindow::Matrix TenantWindow::snapshot(std::size_t window_buckets) {
  if (window_buckets > config_.live_buckets)
    throw std::invalid_argument(
        "TenantWindow: window exceeds live_buckets");
  const std::size_t w =
      window_buckets == 0 ? config_.live_buckets : window_buckets;
  ++snapshots_;
  // Window cut: bucket ids in (newest - w, newest], ascending.
  const auto span = static_cast<std::uint64_t>(w - 1);
  const std::uint64_t lo =
      newest_id_ >= span ? newest_id_ - span : 0;
  std::vector<const Matrix*> parts;
  parts.reserve(buckets_.size());
  bool sorted = true;
  for (auto& b : buckets_) {
    if (!have_any_ || b.id < lo) continue;
    const Matrix& partial = b.acc.partial_sum();
    sorted = sorted && b.acc.partial_is_sorted();
    parts.push_back(&partial);
  }
  if (parts.empty()) return Matrix(rows_, cols_);
  // A single live bucket IS the window sum — returning its partial
  // unchanged is what makes the one-bucket window bit-identical to a
  // non-windowed accumulator fed the same stream.
  if (parts.size() == 1) return *parts.front();
  core::Options opts = config_.options;
  opts.inputs_sorted = opts.inputs_sorted && sorted;
  return core::spkadd(core::MatrixPtrs<std::int32_t, double>(parts),
                      opts);
}

WindowStats TenantWindow::stats() const {
  WindowStats out;
  out.accepted = accepted_;
  out.expired_rejected = expired_rejected_;
  out.buckets_opened = buckets_opened_;
  out.buckets_retired = buckets_retired_;
  out.snapshots = snapshots_;
  out.fold_flushes = retired_flushes_;
  out.peak_staged_nnz = retired_peak_staged_;
  for (const auto& b : buckets_) {
    out.fold_flushes += b.acc.stats().flushes;
    out.peak_staged_nnz =
        std::max(out.peak_staged_nnz, b.acc.stats().peak_staged_nnz);
  }
  out.live_buckets = buckets_.size();
  out.newest_bucket = newest_id_;
  out.chunks_heap = counters_.chunks_heap;
  out.chunks_spa = counters_.chunks_spa;
  out.chunks_hash = counters_.chunks_hash;
  out.chunks_sliding = counters_.chunks_sliding;
  out.chunks_dense = counters_.chunks_dense;
  return out;
}

}  // namespace spkadd::service
