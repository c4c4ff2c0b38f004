// Streaming SpKAdd accumulator — the paper's §V memory-constrained
// extension ("arrange input matrices in multiple batches and then use
// SpKAdd for each batch") promoted to a first-class, stateful subsystem.
//
// Gradient aggregation and FEM assembly are *streams* of addends, not a
// one-shot span: contributions arrive one (or a few) at a time and the
// consumer wants the running sum at the end. The Accumulator keeps a CSC
// partial sum, stages incoming addends as borrowed pointers (or takes
// ownership of rvalues), and folds the staged batch plus the running sum
// with one extra SpKAdd level — the §V trade-off of peak memory (one batch
// of addends live instead of all k) against re-streaming the partial sum
// once per batch.
//
// When to fold is a size ratio, not a count: a fold fires once the staged
// addends hold as many nonzeros as the running sum (and at least 8 are
// staged), so the batch grows with the sum and each fold reads about as
// much new input as old partial sum. This is the trigger of log-structured
// merge trees (O'Neil et al., Acta Informatica 1996) without their
// re-association: staged addends only ever meet the running sum, in staged
// order, so every fold is the same strict left fold at any batch size. A
// caller that needs §V's hard memory bound passes a batch_capacity, which
// forces a fold at that many staged addends.
//
// What makes it cheaper than calling spkadd() once per batch in a loop:
//   * zero input copies — batches are spans of borrowed matrix pointers
//     fed straight to the pointer-span drivers;
//   * persistent per-thread workspaces — the hash/dense/heap scratch in
//     the owned Runtime only ever grows, so no batch re-allocates tables;
//   * the per-column cost scan feeding the per-chunk kernel plan of
//     Method::Auto (its chunk cut and its kernel choice) lives in the
//     same Runtime and is recomputed in parallel once per fold, not per
//     consumer. Every fold is a strict left fold whatever kernel mix the
//     plan picks, so streaming stays bit-identical to one-shot.
//
// Representation adaptivity (DensePolicy, a constructor argument): a
// running-sum column whose fill fraction reaches promote_fill is promoted
// to dense column storage — a value array plus occupancy bitmap, like
// the DenseAcc kernel's scratch. Promotion is the Accumulator's own
// decision: a fold first chooses the full-enough columns of the running
// sum, then runs the column-kernel driver with them masked out (kway_add's
// skip mask), and only once it has returned copies their old sums into
// dense slots and scatters the staged addends into every slot in staged
// order — the same strict left fold, bit for bit. partial_sum() and
// finalize() demote every resident column back to CSC (ascending-row
// bitmap scan, values verbatim), so snapshots are byte-identical to a
// never-promoted run.
//
//   core::Accumulator<> acc(rows, cols, opts);
//   for (auto& g : stream) acc.add(std::move(g));   // or acc.add(g) to borrow
//   CscMatrix<> sum = acc.finalize();               // acc is reusable after
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/spkadd.hpp"
#include "util/prefix_sum.hpp"

namespace spkadd::core {

/// Sparse→dense promotion policy of the streaming Accumulator (ROADMAP
/// item 1, mirroring the HLL sparse→dense representation switch): a
/// running partial-sum column whose fill fraction crosses `promote_fill`
/// is promoted to dense column storage and subsequent addends fold into
/// it with scatter adds; finalize()/partial_sum() demote back to CSC, so
/// every output format — and every output *byte* — is unchanged.
/// Promotion requires Options::sorted_output (demotion emits rows
/// ascending) and a column-kernel method; pairwise folds never promote.
struct DensePolicy {
  bool enabled = true;
  /// Promote a column once nnz >= promote_fill * rows (the calibratable
  /// threshold BENCH_dense.json sweeps).
  double promote_fill = 0.5;
  /// Never promote matrices shorter than this: the dense win needs enough
  /// rows to amortize per-column bookkeeping.
  std::int64_t min_rows = 64;
  /// Cap on total dense-resident bytes per accumulator; promotion stops
  /// (new candidates stay sparse) once reached.
  std::size_t max_resident_bytes = 256ull << 20;
};

template <class IndexT = std::int32_t, class ValueT = double>
class Accumulator {
 public:
  using Matrix = CscMatrix<IndexT, ValueT>;

  /// batch_capacity meaning "no count bound": only the size ratio folds.
  static constexpr std::size_t kNoBatchCap =
      std::numeric_limits<std::size_t>::max();
  /// Fold once the staged nnz reaches kFoldRatio x the running sum's nnz
  /// (r = 1: a fold streams at least as much new input as old sum)...
  static constexpr std::size_t kFoldRatio = 1;
  /// ...and at least this many addends are staged, so a ratio fold sums
  /// k >= 8 matrices, the regime where the paper's hash methods dominate.
  /// An explicit batch_capacity <= 8 thus folds on count alone.
  static constexpr std::size_t kMinFoldAddends = 8;

  /// Usage/footprint counters for benches and tests.
  struct Stats {
    std::uint64_t addends = 0;  ///< total matrices ever staged
    std::uint64_t flushes = 0;  ///< folds performed
    std::size_t peak_intermediate_bytes = 0;  ///< max of acc+owned+scratch
    /// Max total nnz of addends simultaneously staged (awaiting a fold) —
    /// the "live intermediates" bound of the streaming SUMMA pipeline:
    /// never more than batch_capacity addends' worth when the caller sets
    /// one; without one, up to the running sum's nnz plus one addend, or
    /// kMinFoldAddends addends' worth if that is more.
    std::size_t peak_staged_nnz = 0;
    /// Sparse→dense column promotions performed (DensePolicy).
    std::uint64_t dense_promotions = 0;
    /// Dense→CSC column demotions performed at snapshot boundaries.
    std::uint64_t dense_demotions = 0;
  };

  /// `batch_capacity` is an optional hard bound on staged addends: a fold
  /// fires at that count even when the size ratio has not.
  explicit Accumulator(IndexT rows, IndexT cols, Options opts = {},
                       std::size_t batch_capacity = kNoBatchCap,
                       DensePolicy dense = {})
      : rows_(rows),
        cols_(cols),
        opts_(opts),
        cap_(batch_capacity),
        dense_(dense) {
    if (batch_capacity < 1)
      throw std::invalid_argument("Accumulator: batch_capacity must be >= 1");
    detail::check_sentinel_shape(rows);
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
    return resident_cols_.size();
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
  /// flush(), partial_sum() or finalize(): a fold may fire on any add, and
  /// when depends on the running sum's size, so counting addends does not
  /// predict it. No copy is made while folding batches; the one
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
  /// in multiple batches"); folds fire as add() would fire them, so the
  /// span must outlive the next flush(), partial_sum() or finalize().
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
    // Idle implies nothing resident, but the lazily-sized column mask
    // must not carry the previous shape into the next stream.
    resident_.clear();
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
  void flush() { fold(/*promote=*/true); }

  /// Fold any pending addends and borrow the running sum WITHOUT
  /// consuming it — snapshot readers (the aggregation service) assemble
  /// a consistent view from many accumulators' partials while each one
  /// keeps streaming afterwards. An accumulator that never saw an
  /// addend materializes (and keeps) the all-zero rows x cols sum. The
  /// reference is invalidated by any later add/flush/finalize.
  [[nodiscard]] const Matrix& partial_sum() {
    fold(/*promote=*/false);
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
    fold(/*promote=*/false);
    demote_all();
    Matrix out = have_acc_ ? std::move(acc_) : Matrix(rows_, cols_);
    acc_ = Matrix();
    have_acc_ = false;
    acc_sorted_ = true;
    sum_nnz_ = 0;
    return out;
  }

 private:
  /// Fold the staged addends plus the running sum. With `promote`, the
  /// fold first chooses new dense residents; partial_sum() and finalize()
  /// pass false, since demote_all() would merge them straight back.
  void fold(bool promote) {
    require_no_open_buffer();
    if (staged_.empty()) return;
    fold_.clear();
    if (have_acc_) fold_.push_back(&acc_);
    fold_.insert(fold_.end(), staged_.begin(), staged_.end());

    Options fopts = opts_;
    // An unsorted running sum (hash family with sorted_output=false) must
    // not be fed to a fold that assumes sorted inputs.
    fopts.inputs_sorted = opts_.inputs_sorted && (!have_acc_ || acc_sorted_);

    std::size_t owned_bytes = 0;
    for (const auto& m : owned_) owned_bytes += m.storage_bytes();
    // Mid-fold, the outgoing running sum and the fresh result are live at
    // once; count both so the peak is not understated.
    const std::size_t acc_before = have_acc_ ? acc_.storage_bytes() : 0;

    if (fold_.size() == 1) {
      // Single addend, no running sum yet (so nothing resident):
      // materialize it directly (move when we own it) instead of running
      // a 1-way pipeline.
      Matrix* own = owned_.empty() ? nullptr : &owned_.front();
      acc_ = own ? std::move(*own) : Matrix(*fold_.front());
      if (own) owned_bytes = 0;  // the owned buffer *became* acc_
      if (fopts.sorted_output && !acc_.is_sorted()) acc_.sort_columns();
    } else {
      const std::size_t kept = resident_cols_.size();
      Matrix sum;
      try {
        if (promote) choose_promotions();
        const MatrixPtrs<IndexT, ValueT> batch(fold_);
        // Resident columns stay out of the sparse fold: the mask leaves
        // them empty in `sum`, and their addends scatter below.
        sum = resident_cols_.empty()
                  ? spkadd(batch, fopts, &rt_)
                  : kway_add(batch, fopts, method_kernel(opts_.method), rt_,
                             resident_);
      } catch (...) {
        // A throwing fold leaves acc_, the slots and the mask as they
        // were: un-choose this fold's promotions.
        for (std::size_t s = kept; s < resident_cols_.size(); ++s)
          resident_[static_cast<std::size_t>(resident_cols_[s])] = 0;
        resident_cols_.resize(kept);
        throw;
      }
      for (std::size_t s = kept; s < resident_cols_.size(); ++s)
        load_slot(s);
      stats_.dense_promotions += resident_cols_.size() - kept;
      acc_ = std::move(sum);
      scatter_staged_into_dense();
      // Keep the persistent footprint independent of which thread ran
      // which column (see Runtime::level_scratch).
      rt_.level_scratch();
    }
    have_acc_ = true;
    acc_sorted_ = emits_sorted(opts_.method) || opts_.sorted_output;
    sum_nnz_ = acc_.nnz();
    for (std::size_t s = 0; s < resident_cols_.size(); ++s)
      sum_nnz_ += slot_nnz(s);

    ++stats_.flushes;
    const std::size_t live = acc_before + acc_.storage_bytes() +
                             owned_bytes + rt_.storage_bytes() +
                             dense_storage_bytes();
    stats_.peak_intermediate_bytes =
        std::max(stats_.peak_intermediate_bytes, live);

    staged_.clear();
    owned_.clear();
    staged_nnz_ = 0;
  }

  /// Promotion is legal only when the stream can honor it: the policy is
  /// on, snapshots want sorted columns (demotion emits ascending), the
  /// matrix is tall enough to pay off, and folds run the column-kernel
  /// driver (the pairwise families cannot skip columns).
  [[nodiscard]] bool promotion_allowed() const {
    return dense_.enabled && !is_pairwise(opts_.method) &&
           opts_.sorted_output &&
           static_cast<std::int64_t>(rows_) >= dense_.min_rows;
  }

  [[nodiscard]] std::size_t mask_words() const {
    return (static_cast<std::size_t>(rows_) + 63) / 64;
  }

  [[nodiscard]] std::size_t dense_storage_bytes() const {
    return dense_vals_.capacity() * sizeof(ValueT) +
           dense_mask_.capacity() * sizeof(std::uint64_t);
  }

  [[nodiscard]] ValueT* slot_values(std::size_t s) {
    return dense_vals_.data() + s * static_cast<std::size_t>(rows_);
  }
  [[nodiscard]] std::uint64_t* slot_mask(std::size_t s) {
    return dense_mask_.data() + s * mask_words();
  }
  /// Rows occupied in slot `s`: its resident column's nnz.
  [[nodiscard]] std::size_t slot_nnz(std::size_t s) {
    const std::uint64_t* mask = slot_mask(s);
    std::size_t nz = 0;
    for (std::size_t w = 0; w < mask_words(); ++w)
      nz += static_cast<std::size_t>(std::popcount(mask[w]));
    return nz;
  }

  /// Before a fold: choose every full-enough column of the running sum
  /// (under the byte budget) and mark it in the mask. Resident columns
  /// are empty in acc_, so the nnz test skips them. The slots are sized
  /// here, so nothing after a successful fold can fail.
  void choose_promotions() {
    if (!have_acc_ || !promotion_allowed()) return;
    const auto m = static_cast<std::size_t>(rows_);
    const std::size_t slot_bytes =
        m * sizeof(ValueT) + mask_words() * sizeof(std::uint64_t);
    const double cut = dense_.promote_fill * static_cast<double>(rows_);
    for (IndexT j = 0; j < cols_; ++j) {
      const auto nz = static_cast<std::size_t>(acc_.col_nnz(j));
      if (nz == 0 || static_cast<double>(nz) < cut) continue;
      if ((resident_cols_.size() + 1) * slot_bytes >
          dense_.max_resident_bytes)
        break;
      if (resident_.empty())
        resident_.assign(static_cast<std::size_t>(cols_), 0);
      resident_[static_cast<std::size_t>(j)] = 1;
      resident_cols_.push_back(j);
    }
    const std::size_t slots = resident_cols_.size();
    if (dense_vals_.size() < slots * m) dense_vals_.resize(slots * m);
    if (dense_mask_.size() < slots * mask_words())
      dense_mask_.resize(slots * mask_words());
  }

  /// Copy the running sum's column of slot `s` into the slot verbatim
  /// (promotion must not perturb a single bit). Unset value slots stay
  /// stale — they are never read, and a first touch assigns rather than
  /// adds.
  void load_slot(std::size_t s) {
    ValueT* vals = slot_values(s);
    std::uint64_t* mask = slot_mask(s);
    std::fill(mask, mask + mask_words(), std::uint64_t{0});
    const auto col = acc_.column(resident_cols_[s]);
    for (std::size_t p = 0; p < col.rows.size(); ++p) {
      const auto r = static_cast<std::size_t>(col.rows[p]);
      vals[r] = col.vals[p];
      mask[r >> 6] |= std::uint64_t{1} << (r & 63);
    }
  }

  /// Fold the just-staged addends' resident columns into their dense
  /// slots, in staged order — the same strict left fold the kernels run
  /// (first touch assigns, later touches +=), so the value bytes stay
  /// identical to a never-promoted stream.
  void scatter_staged_into_dense() {
    for (const Matrix* a : staged_) {
      for (std::size_t s = 0; s < resident_cols_.size(); ++s) {
        ValueT* vals = slot_values(s);
        std::uint64_t* mask = slot_mask(s);
        const auto col = a->column(resident_cols_[s]);
        for (std::size_t p = 0; p < col.rows.size(); ++p) {
          const auto r = static_cast<std::size_t>(col.rows[p]);
          const std::uint64_t bit = std::uint64_t{1} << (r & 63);
          if ((mask[r >> 6] & bit) != 0) {
            vals[r] += col.vals[p];
          } else {
            mask[r >> 6] |= bit;
            vals[r] = col.vals[p];
          }
        }
      }
    }
  }

  /// Merge every dense-resident column back into acc_ as CSC: ascending
  /// bitmap scan, value bytes verbatim. Clears all residency state; the
  /// dense backing stores keep their capacity for the next promotion.
  void demote_all() {
    if (resident_cols_.empty()) return;
    const std::size_t words = mask_words();
    // Resident columns are empty in acc_; their counts come from the
    // slots' bitmaps.
    std::vector<IndexT> counts(static_cast<std::size_t>(cols_));
    for (IndexT j = 0; j < cols_; ++j)
      counts[static_cast<std::size_t>(j)] = acc_.col_nnz(j);
    for (std::size_t s = 0; s < resident_cols_.size(); ++s)
      counts[static_cast<std::size_t>(resident_cols_[s])] =
          static_cast<IndexT>(slot_nnz(s));
    Matrix merged(rows_, cols_);
    merged.set_structure(util::counts_to_offsets(
        std::span<const IndexT>(counts), detail::team_size(opts_)));
    auto* orow = merged.mutable_row_idx().data();
    auto* oval = merged.mutable_values().data();
    const auto ocp = merged.col_ptr();
    for (IndexT j = 0; j < cols_; ++j) {
      const auto col = acc_.column(j);
      const auto out = ocp[static_cast<std::size_t>(j)];
      std::copy(col.rows.begin(), col.rows.end(), orow + out);
      std::copy(col.vals.begin(), col.vals.end(), oval + out);
    }
    for (std::size_t s = 0; s < resident_cols_.size(); ++s) {
      const ValueT* vals = slot_values(s);
      const std::uint64_t* mask = slot_mask(s);
      auto out = static_cast<std::size_t>(
          ocp[static_cast<std::size_t>(resident_cols_[s])]);
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
          const auto r =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          orow[out] = static_cast<IndexT>(r);
          oval[out] = vals[r];
          ++out;
        }
      }
    }
    acc_ = std::move(merged);
    sum_nnz_ = acc_.nnz();
    stats_.dense_demotions += resident_cols_.size();
    resident_.clear();
    resident_cols_.clear();
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
    if (staged_.size() >= cap_ ||
        (staged_.size() >= kMinFoldAddends &&
         staged_nnz_ >= kFoldRatio * sum_nnz_))
      flush();
  }

  IndexT rows_;
  IndexT cols_;
  Options opts_;
  std::size_t cap_;

  Matrix acc_;
  bool have_acc_ = false;
  bool acc_sorted_ = true;
  /// Running-sum nnz, dense-resident columns included (acc_.nnz() leaves
  /// them out); set once per fold and per demotion, read by stage().
  std::size_t sum_nnz_ = 0;

  std::vector<const Matrix*> staged_;  ///< borrowed addends awaiting a fold
  std::size_t staged_nnz_ = 0;  ///< total nnz currently staged
  bool staging_open_ = false;   ///< a stage_buffer() awaits commit_staged()
  std::deque<Matrix> owned_;  ///< moved-in addends (deque: stable addresses)
  std::vector<const Matrix*> fold_;  ///< scratch: [acc?, staged...]
  Runtime<IndexT, ValueT> rt_;  ///< persistent scratch + cost scan
  Stats stats_;

  // Dense-resident (promoted) column state. Invariants: a resident
  // column is empty in acc_ (the fold masks it), and residents imply
  // have_acc_ (promotion chooses from acc_; every snapshot demotes first).
  DensePolicy dense_;
  std::vector<std::uint8_t> resident_;  ///< kway_add mask: 1 = dense column
  std::vector<IndexT> resident_cols_;   ///< column of each slot, slot order
  std::vector<ValueT> dense_vals_;      ///< slot-major value arrays (m each)
  std::vector<std::uint64_t> dense_mask_;  ///< slot-major occupancy bitmaps
};

extern template class Accumulator<std::int32_t, double>;

}  // namespace spkadd::core
