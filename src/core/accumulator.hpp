// Streaming SpKAdd accumulator — the paper's §V memory-constrained
// extension ("arrange input matrices in multiple batches and then use
// SpKAdd for each batch") promoted to a first-class, stateful subsystem.
//
// Gradient aggregation and FEM assembly are *streams* of addends, not a
// one-shot span: contributions arrive one (or a few) at a time and the
// consumer wants the running sum at the end. The Accumulator keeps a CSC
// partial sum, stages incoming addends as borrowed pointers (or takes
// ownership of rvalues), and folds a full batch plus the running sum with
// one extra SpKAdd level — the exact §V trade-off of peak memory (one batch
// of addends live instead of all k) against re-streaming the partial sum
// once per batch.
//
// What makes it cheaper than calling spkadd() once per batch in a loop:
//   * zero input copies — batches are spans of borrowed matrix pointers
//     fed straight to the pointer-span drivers;
//   * persistent per-thread workspaces — the hash/SPA/heap scratch in the
//     owned Runtime only ever grows, so no batch re-allocates tables;
//   * the per-column cost scan feeding Method::Auto, Method::Hybrid's
//     per-chunk kernel plan and the nnz-balanced schedule lives in the
//     same Runtime and is recomputed in parallel once per fold, not per
//     consumer. Hybrid folds (Options::method = Method::Hybrid) work
//     unchanged: every fold is a strict left fold whatever kernel mix the
//     plan picks, so streaming stays bit-identical to one-shot.
//
// Representation adaptivity (Options::dense): a running-sum column whose
// fill fraction crosses DensePolicy::promote_fill is promoted to dense
// column storage — a value array plus occupancy bitmap, exactly the
// DenseAcc kernel's layout. Promoted columns leave the sparse fold
// entirely (Options::skip_cols masks them) and subsequent addends scatter
// straight into the dense slot in staged order, preserving the strict
// left-fold addition order bit for bit. partial_sum()/finalize() demote
// every resident column back to CSC (ascending-row bitmap scan, values
// verbatim), so snapshots are byte-identical to a never-promoted run.
//
//   core::Accumulator<> acc(rows, cols, opts);
//   for (auto& g : stream) acc.add(std::move(g));   // or acc.add(g) to borrow
//   CscMatrix<> sum = acc.finalize();               // acc is reusable after
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/spkadd.hpp"
#include "util/prefix_sum.hpp"

namespace spkadd::core {

template <class IndexT = std::int32_t, class ValueT = double>
class Accumulator {
 public:
  using Matrix = CscMatrix<IndexT, ValueT>;

  /// Fold after this many staged addends unless the caller chose otherwise.
  /// The fold then sums batch_capacity + 1 matrices (batch plus running
  /// sum), comfortably past the k >= 8 regime where the paper's hash
  /// methods dominate.
  static constexpr std::size_t kDefaultBatchCapacity = 8;

  /// Usage/footprint counters for benches and tests.
  struct Stats {
    std::uint64_t addends = 0;  ///< total matrices ever staged
    std::uint64_t flushes = 0;  ///< folds performed
    std::size_t peak_intermediate_bytes = 0;  ///< max of acc+owned+scratch
    /// Max total nnz of addends simultaneously staged (awaiting a fold) —
    /// the "live intermediates" bound of the streaming SUMMA pipeline:
    /// never more than batch_capacity addends' worth.
    std::size_t peak_staged_nnz = 0;
    /// Sparse→dense column promotions performed (DensePolicy).
    std::uint64_t dense_promotions = 0;
    /// Dense→CSC column demotions performed at snapshot boundaries.
    std::uint64_t dense_demotions = 0;
  };

  explicit Accumulator(IndexT rows, IndexT cols, Options opts = {},
                       std::size_t batch_capacity = kDefaultBatchCapacity)
      : rows_(rows), cols_(cols), opts_(opts), cap_(batch_capacity) {
    if (batch_capacity < 1)
      throw std::invalid_argument("Accumulator: batch_capacity must be >= 1");
    detail::check_sentinel_shape(rows);
    staged_.reserve(cap_);
    fold_.reserve(cap_ + 1);
  }

  // Copying would leave the copy's staged pointers aimed at the original's
  // owned addends (dangling after the original flushes). Moves are safe:
  // deque element addresses survive a move.
  Accumulator(const Accumulator&) = delete;
  Accumulator& operator=(const Accumulator&) = delete;
  Accumulator(Accumulator&&) noexcept = default;
  Accumulator& operator=(Accumulator&&) noexcept = default;

  [[nodiscard]] IndexT rows() const { return rows_; }
  [[nodiscard]] IndexT cols() const { return cols_; }
  [[nodiscard]] std::size_t batch_capacity() const { return cap_; }
  /// Addends staged but not yet folded into the running sum.
  [[nodiscard]] std::size_t pending() const { return staged_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Columns currently held in dense (promoted) storage. Zero between
  /// snapshots: partial_sum()/finalize() demote everything.
  [[nodiscard]] std::size_t dense_resident_cols() const {
    return resident_count_;
  }
  /// Bytes of persistent per-thread scratch currently held (survives
  /// finalize(); the workspace-reuse guarantee tests pin this).
  [[nodiscard]] std::size_t workspace_bytes() const {
    return rt_.storage_bytes();
  }
  /// The persistent execution context (per-thread scratch + cost scan).
  /// Producers that emit addends — e.g. spgemm::multiply_into — can share
  /// it so the local multiply and the folds keep one hot scratch pool.
  [[nodiscard]] Runtime<IndexT, ValueT>& runtime() { return rt_; }

  /// Stage a borrowed addend. The matrix must stay alive until the next
  /// flush()/finalize() or until batch_capacity addends force a fold —
  /// whichever comes first. No copy is made while folding batches; the one
  /// exception is a stream that ends with a single borrowed addend and no
  /// running sum, whose buffer must be materialized as the result.
  void add(const Matrix& m) {
    require_no_open_buffer();
    stage(&m);
  }

  /// Stage an owned addend: the matrix is moved in (no deep copy) and
  /// released at the next fold. For streams whose producer discards each
  /// contribution right after handing it over.
  void add(Matrix&& m) {
    require_no_open_buffer();
    check_shape(m);
    owned_.push_back(std::move(m));
    stage(&owned_.back());
  }

  /// Stage a whole batch of borrowed addends (§V's "arrange input matrices
  /// in multiple batches"); folds fire every batch_capacity addends.
  void add_batch(std::span<const Matrix> ms) {
    for (const auto& m : ms) add(m);
  }

  /// Open an accumulator-owned staging slot and hand it to a producer to
  /// emit the next addend *in place* (no move, no copy): fill the returned
  /// matrix, then call commit_staged(). Exactly one slot may be open at a
  /// time, and no add()/flush()/finalize() may run while it is.
  [[nodiscard]] Matrix& stage_buffer() {
    if (staging_open_)
      throw std::logic_error("Accumulator: stage_buffer already open");
    owned_.emplace_back();
    staging_open_ = true;
    return owned_.back();
  }

  /// Commit the addend emitted into the open stage_buffer(). Shape-checked
  /// here (the producer sets the shape); may trigger a fold. A rejected
  /// emission is dropped, leaving the accumulator as if the buffer had
  /// never been opened.
  void commit_staged() {
    if (!staging_open_)
      throw std::logic_error("Accumulator: commit_staged without a buffer");
    staging_open_ = false;
    Matrix& slot = owned_.back();
    if (slot.rows() != rows_ || slot.cols() != cols_) {
      owned_.pop_back();  // never staged: must not linger as fold debris
      throw std::invalid_argument("Accumulator: addend is not conformant");
    }
    stage(&slot);
  }

  /// Re-shape an *idle* accumulator (nothing staged, no running sum) for
  /// the next stream. Keeps the grown workspaces — this is what lets one
  /// accumulator serve a sequence of differently-shaped reductions, e.g.
  /// the per-process blocks of the streaming SUMMA pipeline.
  void reshape(IndexT rows, IndexT cols) {
    if (have_acc_ || !staged_.empty() || staging_open_)
      throw std::logic_error("Accumulator: reshape while not idle");
    detail::check_sentinel_shape(rows);
    rows_ = rows;
    cols_ = cols;
    // Idle implies nothing resident, but the lazily-sized per-column
    // vectors must not carry the previous shape into the next stream.
    resident_.clear();
    dense_slot_.clear();
    dense_slots_ = 0;
    resident_count_ = 0;
  }

  /// Drop every staged addend without folding it — the recovery path
  /// after a fold threw (e.g. unsorted inputs under a merge-family
  /// method). The running sum keeps its last consistent value (a failed
  /// fold never assigns it) and owned buffers are released, so the
  /// accumulator is usable again instead of re-throwing on every later
  /// fold of the poisoned batch.
  void discard_staged() {
    require_no_open_buffer();
    staged_.clear();
    owned_.clear();
    staged_nnz_ = 0;
  }

  /// Fold everything staged into the running partial sum now. No-op when
  /// nothing is pending.
  void flush() {
    require_no_open_buffer();
    if (staged_.empty()) return;
    fold_.clear();
    if (have_acc_) fold_.push_back(&acc_);
    fold_.insert(fold_.end(), staged_.begin(), staged_.end());

    Options fopts = opts_;
    // An unsorted running sum (hash family with sorted_output=false) must
    // not be fed to a fold that assumes sorted inputs.
    fopts.inputs_sorted = opts_.inputs_sorted && (!have_acc_ || acc_sorted_);
    // Dense-resident columns bypass the sparse fold entirely: the mask
    // keeps their (stripped, empty) acc_ columns and their addend columns
    // out of the kernels; the addends scatter into dense storage below,
    // only after the fold has succeeded (exception safety: a throwing fold
    // must leave the dense partials untouched, like it leaves acc_).
    if (resident_count_ > 0) fopts.skip_cols = resident_.data();

    std::size_t owned_bytes = 0;
    for (const auto& m : owned_) owned_bytes += m.storage_bytes();
    // Mid-fold, the outgoing running sum and the fresh result are live at
    // once; count both so the peak is not understated.
    const std::size_t acc_before = have_acc_ ? acc_.storage_bytes() : 0;

    if (fold_.size() == 1 && resident_count_ == 0) {
      // Single addend, no running sum yet: materialize it directly (move
      // when we own it) instead of running a 1-way pipeline.
      Matrix* own = owned_.empty() ? nullptr : &owned_.front();
      acc_ = own ? std::move(*own) : Matrix(*fold_.front());
      if (own) owned_bytes = 0;  // the owned buffer *became* acc_
      if (fopts.sorted_output && !acc_.is_sorted()) acc_.sort_columns();
    } else {
      acc_ = spkadd(MatrixPtrs<IndexT, ValueT>(fold_), fopts, &rt_);
      // Keep the persistent footprint independent of which thread ran
      // which column (see Runtime::level_scratch).
      rt_.level_scratch();
    }
    scatter_staged_into_dense();
    have_acc_ = true;
    acc_sorted_ = method_emits_sorted(opts_.method, opts_.sorted_output);

    ++stats_.flushes;
    const std::size_t live = acc_before + acc_.storage_bytes() +
                             owned_bytes + rt_.storage_bytes() +
                             dense_storage_bytes();
    stats_.peak_intermediate_bytes =
        std::max(stats_.peak_intermediate_bytes, live);

    staged_.clear();
    owned_.clear();
    staged_nnz_ = 0;
    maybe_promote();
  }

  /// Fold any pending addends and borrow the running sum WITHOUT
  /// consuming it — snapshot readers (the aggregation service) assemble
  /// a consistent view from many accumulators' partials while each one
  /// keeps streaming afterwards. An accumulator that never saw an
  /// addend materializes (and keeps) the all-zero rows x cols sum. The
  /// reference is invalidated by any later add/flush/finalize.
  [[nodiscard]] const Matrix& partial_sum() {
    flush();
    demote_all();
    if (!have_acc_) {
      acc_ = Matrix(rows_, cols_);
      have_acc_ = true;
      acc_sorted_ = true;
    }
    return acc_;
  }

  /// Whether partial_sum()'s columns are sorted — false only after
  /// unsorted-output hash folds; snapshot assembly uses this to set
  /// Options::inputs_sorted honestly.
  [[nodiscard]] bool partial_is_sorted() const {
    return !have_acc_ || acc_sorted_;
  }

  /// Fold any pending addends and hand the sum to the caller. The
  /// accumulator resets to empty but keeps its workspaces, so the next
  /// stream reuses the grown scratch. An accumulator that never saw an
  /// addend yields the all-zero rows x cols matrix.
  [[nodiscard]] Matrix finalize() {
    flush();
    demote_all();
    Matrix out = have_acc_ ? std::move(acc_) : Matrix(rows_, cols_);
    acc_ = Matrix();
    have_acc_ = false;
    acc_sorted_ = true;
    return out;
  }

 private:
  /// Methods whose output columns are sorted regardless of
  /// Options::sorted_output (merge/heap families sort by construction;
  /// DenseAcc's bitmap scan emits ascending by construction).
  [[nodiscard]] static bool method_emits_sorted(Method m, bool sorted_output) {
    switch (m) {
      case Method::TwoWayIncremental:
      case Method::TwoWayTree:
      case Method::Heap:
      case Method::DenseAcc:
      case Method::ReferenceIncremental:
      case Method::ReferenceTree:
        return true;
      default:
        return sorted_output;
    }
  }

  /// Promotion is legal only when the stream can honor it: the policy is
  /// on, snapshots want sorted columns (demotion emits ascending), the
  /// matrix is tall enough to pay off, and folds run a column-kernel
  /// method (the pairwise families cannot skip columns).
  [[nodiscard]] bool promotion_allowed() const {
    switch (opts_.method) {
      case Method::TwoWayIncremental:
      case Method::TwoWayTree:
      case Method::ReferenceIncremental:
      case Method::ReferenceTree:
        return false;
      default:
        break;
    }
    return opts_.dense.enabled && opts_.sorted_output &&
           static_cast<std::int64_t>(rows_) >= opts_.dense.min_rows;
  }

  [[nodiscard]] std::size_t mask_words() const {
    return (static_cast<std::size_t>(rows_) + 63) / 64;
  }

  [[nodiscard]] std::size_t dense_storage_bytes() const {
    return dense_vals_.capacity() * sizeof(ValueT) +
           dense_mask_.capacity() * sizeof(std::uint64_t);
  }

  /// Fold the just-staged addends' resident columns into their dense
  /// slots, in staged order — the same strict left fold the kernels run
  /// (first touch assigns, later touches +=), so the value bytes stay
  /// identical to a never-promoted stream. noexcept in effect: storage is
  /// preallocated, so a fold that already succeeded cannot be undone by a
  /// failure here.
  void scatter_staged_into_dense() {
    if (resident_count_ == 0) return;
    const auto m = static_cast<std::size_t>(rows_);
    const std::size_t words = mask_words();
    for (const Matrix* a : staged_) {
      const auto cp = a->col_ptr();
      const auto ri = a->row_idx();
      const auto vv = a->values();
      for (IndexT j = 0; j < cols_; ++j) {
        if (resident_[static_cast<std::size_t>(j)] == 0) continue;
        const auto slot =
            static_cast<std::size_t>(dense_slot_[static_cast<std::size_t>(j)]);
        ValueT* vals = dense_vals_.data() + slot * m;
        std::uint64_t* mask = dense_mask_.data() + slot * words;
        const auto lo =
            static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
        const auto hi =
            static_cast<std::size_t>(cp[static_cast<std::size_t>(j) + 1]);
        for (std::size_t p = lo; p < hi; ++p) {
          const auto r = static_cast<std::size_t>(ri[p]);
          const std::uint64_t bit = std::uint64_t{1} << (r & 63);
          if ((mask[r >> 6] & bit) != 0) {
            vals[r] += vv[p];
          } else {
            mask[r >> 6] |= bit;
            vals[r] = vv[p];
          }
        }
      }
    }
  }

  /// Promote every sufficiently full sparse column (under the byte
  /// budget), then strip the promoted columns out of acc_ so the next
  /// demotion cannot double-count them.
  void maybe_promote() {
    if (!have_acc_ || !promotion_allowed()) return;
    const auto m = static_cast<std::size_t>(rows_);
    const std::size_t words = mask_words();
    const std::size_t slot_bytes =
        m * sizeof(ValueT) + words * sizeof(std::uint64_t);
    const double cut =
        opts_.dense.promote_fill * static_cast<double>(rows_);
    bool any = false;
    for (IndexT j = 0; j < cols_; ++j) {
      const auto js = static_cast<std::size_t>(j);
      if (!resident_.empty() && resident_[js] != 0) continue;
      const auto nz = static_cast<std::size_t>(acc_.col_nnz(j));
      if (nz == 0 || static_cast<double>(nz) < cut) continue;
      if ((resident_count_ + 1) * slot_bytes > opts_.dense.max_resident_bytes)
        break;
      promote_column(j, m, words);
      any = true;
    }
    if (any) strip_resident_from_acc();
  }

  void promote_column(IndexT j, std::size_t m, std::size_t words) {
    if (resident_.empty())
      resident_.assign(static_cast<std::size_t>(cols_), 0);
    if (dense_slot_.empty())
      dense_slot_.assign(static_cast<std::size_t>(cols_), -1);
    const std::size_t slot = dense_slots_++;
    if (dense_vals_.size() < dense_slots_ * m)
      dense_vals_.resize(dense_slots_ * m);
    if (dense_mask_.size() < dense_slots_ * words)
      dense_mask_.resize(dense_slots_ * words);
    ValueT* vals = dense_vals_.data() + slot * m;
    std::uint64_t* mask = dense_mask_.data() + slot * words;
    std::fill(mask, mask + words, std::uint64_t{0});
    // Copy the running sum's column verbatim (values untouched: promotion
    // must not perturb a single bit). Unset value slots stay stale — they
    // are never read, and a first touch assigns rather than adds.
    const auto cp = acc_.col_ptr();
    const auto ri = acc_.row_idx();
    const auto vv = acc_.values();
    const auto lo = static_cast<std::size_t>(cp[static_cast<std::size_t>(j)]);
    const auto hi =
        static_cast<std::size_t>(cp[static_cast<std::size_t>(j) + 1]);
    for (std::size_t p = lo; p < hi; ++p) {
      const auto r = static_cast<std::size_t>(ri[p]);
      vals[r] = vv[p];
      mask[r >> 6] |= std::uint64_t{1} << (r & 63);
    }
    resident_[static_cast<std::size_t>(j)] = 1;
    dense_slot_[static_cast<std::size_t>(j)] =
        static_cast<std::int64_t>(slot);
    ++resident_count_;
    ++stats_.dense_promotions;
  }

  /// Rebuild acc_ with every resident column empty. Promoted columns live
  /// in dense storage only; leaving their CSC copy in place would add
  /// them twice at demotion.
  void strip_resident_from_acc() {
    std::vector<IndexT> counts(static_cast<std::size_t>(cols_), IndexT{0});
    for (IndexT j = 0; j < cols_; ++j)
      if (resident_[static_cast<std::size_t>(j)] == 0)
        counts[static_cast<std::size_t>(j)] = acc_.col_nnz(j);
    Matrix stripped(rows_, cols_);
    stripped.set_structure(
        util::counts_to_offsets(std::span<const IndexT>(counts)));
    auto* orow = stripped.mutable_row_idx().data();
    auto* oval = stripped.mutable_values().data();
    const auto ocp = stripped.col_ptr();
    const auto cp = acc_.col_ptr();
    const auto ri = acc_.row_idx();
    const auto vv = acc_.values();
    for (IndexT j = 0; j < cols_; ++j) {
      const auto js = static_cast<std::size_t>(j);
      if (resident_[js] != 0) continue;
      const auto lo = static_cast<std::size_t>(cp[js]);
      const auto n = static_cast<std::size_t>(cp[js + 1]) - lo;
      auto out = static_cast<std::size_t>(ocp[js]);
      for (std::size_t p = 0; p < n; ++p) {
        orow[out + p] = ri[lo + p];
        oval[out + p] = vv[lo + p];
      }
    }
    acc_ = std::move(stripped);
  }

  /// Merge every dense-resident column back into acc_ as CSC: ascending
  /// bitmap scan, value bytes verbatim. Clears all residency state; the
  /// dense backing stores keep their capacity for the next promotion.
  void demote_all() {
    if (resident_count_ == 0) return;
    const auto m = static_cast<std::size_t>(rows_);
    const std::size_t words = mask_words();
    std::vector<IndexT> counts(static_cast<std::size_t>(cols_), IndexT{0});
    for (IndexT j = 0; j < cols_; ++j) {
      const auto js = static_cast<std::size_t>(j);
      if (resident_[js] != 0) {
        const std::uint64_t* mask =
            dense_mask_.data() +
            static_cast<std::size_t>(dense_slot_[js]) * words;
        std::size_t nz = 0;
        for (std::size_t w = 0; w < words; ++w)
          nz += static_cast<std::size_t>(std::popcount(mask[w]));
        counts[js] = static_cast<IndexT>(nz);
      } else {
        counts[js] = acc_.col_nnz(j);
      }
    }
    Matrix merged(rows_, cols_);
    merged.set_structure(
        util::counts_to_offsets(std::span<const IndexT>(counts)));
    auto* orow = merged.mutable_row_idx().data();
    auto* oval = merged.mutable_values().data();
    const auto ocp = merged.col_ptr();
    const auto cp = acc_.col_ptr();
    const auto ri = acc_.row_idx();
    const auto vv = acc_.values();
    for (IndexT j = 0; j < cols_; ++j) {
      const auto js = static_cast<std::size_t>(j);
      auto out = static_cast<std::size_t>(ocp[js]);
      if (resident_[js] != 0) {
        const auto slot = static_cast<std::size_t>(dense_slot_[js]);
        const ValueT* vals = dense_vals_.data() + slot * m;
        const std::uint64_t* mask = dense_mask_.data() + slot * words;
        for (std::size_t w = 0; w < words; ++w) {
          std::uint64_t bits = mask[w];
          while (bits != 0) {
            const auto r =
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
            orow[out] = static_cast<IndexT>(r);
            oval[out] = vals[r];
            ++out;
            bits &= bits - 1;
          }
        }
      } else {
        const auto lo = static_cast<std::size_t>(cp[js]);
        const auto n = static_cast<std::size_t>(cp[js + 1]) - lo;
        for (std::size_t p = 0; p < n; ++p) {
          orow[out + p] = ri[lo + p];
          oval[out + p] = vv[lo + p];
        }
      }
    }
    acc_ = std::move(merged);
    stats_.dense_demotions += resident_count_;
    resident_.clear();
    dense_slot_.clear();
    dense_slots_ = 0;
    resident_count_ = 0;
  }

  void check_shape(const Matrix& m) const {
    if (m.rows() != rows_ || m.cols() != cols_)
      throw std::invalid_argument("Accumulator: addend is not conformant");
  }

  /// add()/flush()/finalize() while a stage_buffer() awaits its commit
  /// would fold (and then clear) the half-filled slot; reject up front,
  /// before any owned_/staged_ state has changed.
  void require_no_open_buffer() const {
    if (staging_open_)
      throw std::logic_error(
          "Accumulator: operation with an open stage_buffer");
  }

  void stage(const Matrix* m) {
    check_shape(*m);
    staged_.push_back(m);
    ++stats_.addends;
    staged_nnz_ += m->nnz();
    stats_.peak_staged_nnz = std::max(stats_.peak_staged_nnz, staged_nnz_);
    if (staged_.size() >= cap_) flush();
  }

  IndexT rows_;
  IndexT cols_;
  Options opts_;
  std::size_t cap_;

  Matrix acc_;
  bool have_acc_ = false;
  bool acc_sorted_ = true;

  std::vector<const Matrix*> staged_;  ///< borrowed addends awaiting a fold
  std::size_t staged_nnz_ = 0;  ///< total nnz currently staged
  bool staging_open_ = false;   ///< a stage_buffer() awaits commit_staged()
  std::deque<Matrix> owned_;  ///< moved-in addends (deque: stable addresses)
  std::vector<const Matrix*> fold_;  ///< scratch: [acc?, staged...]
  Runtime<IndexT, ValueT> rt_;  ///< persistent scratch + cost scan
  Stats stats_;

  // Dense-resident (promoted) column state. resident_ doubles as the
  // Options::skip_cols mask handed to the sparse fold. Invariant:
  // resident_count_ > 0 implies have_acc_ (promotion only happens after a
  // fold; every snapshot demotes first).
  std::vector<std::uint8_t> resident_;   ///< 1 = column lives in dense storage
  std::vector<std::int64_t> dense_slot_; ///< per-column slot index, -1 = none
  std::vector<ValueT> dense_vals_;       ///< slot-major value arrays (m each)
  std::vector<std::uint64_t> dense_mask_;///< slot-major occupancy bitmaps
  std::size_t dense_slots_ = 0;          ///< slots in use
  std::size_t resident_count_ = 0;       ///< == number of 1s in resident_
};

extern template class Accumulator<std::int32_t, double>;

}  // namespace spkadd::core
