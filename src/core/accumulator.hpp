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
// Batches are spans of borrowed matrix pointers fed straight to the
// pointer-span drivers, so no input is copied. The Accumulator holds no
// kernel scratch: every fold runs on the folding thread's Runtime
// (thread_runtime), which any number of Accumulators share. Every fold is
// a strict left fold whatever kernel mix the plan picks, so streaming
// stays bit-identical to one-shot. Under Method::Auto a full running-sum
// column's chunk goes to the DenseAcc kernel (Alg. 4's SPA), so the
// Accumulator keeps no dense store.
//
//   core::Accumulator<> acc(rows, cols, opts);
//   for (auto& g : stream) acc.add(std::move(g));   // or acc.add(g) to borrow
//   CscMatrix<> sum = acc.finalize();               // acc is reusable after
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/spkadd.hpp"

namespace spkadd::core {

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
    /// Max of running sum + owned addends + the folding thread's scratch.
    std::size_t peak_intermediate_bytes = 0;
    /// Max total nnz of addends simultaneously staged (awaiting a fold) —
    /// the "live intermediates" bound of the streaming SUMMA pipeline:
    /// never more than batch_capacity addends' worth when the caller sets
    /// one; without one, up to the running sum's nnz plus one addend, or
    /// kMinFoldAddends addends' worth if that is more.
    std::size_t peak_staged_nnz = 0;
  };

  /// `batch_capacity` is an optional hard bound on staged addends: a fold
  /// fires at that count even when the size ratio has not.
  explicit Accumulator(IndexT rows, IndexT cols, Options opts = {},
                       std::size_t batch_capacity = kNoBatchCap)
      : rows_(rows), cols_(cols), opts_(opts), cap_(batch_capacity) {
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
  /// the next stream, so one accumulator serves a sequence of
  /// differently-shaped reductions, e.g. the per-process blocks of the
  /// streaming SUMMA pipeline.
  void reshape(IndexT rows, IndexT cols) {
    if (have_acc_ || !staged_.empty() || staging_open_)
      throw std::logic_error("Accumulator: reshape while not idle");
    detail::check_sentinel_shape(rows);
    rows_ = rows;
    cols_ = cols;
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
  /// nothing is pending. A throwing fold never assigns the running sum,
  /// so it keeps its last value.
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

    std::size_t owned_bytes = 0;
    for (const auto& m : owned_) owned_bytes += m.storage_bytes();
    // Mid-fold, the outgoing running sum and the fresh result are live at
    // once; count both so the peak is not understated.
    const std::size_t acc_before = have_acc_ ? acc_.storage_bytes() : 0;

    if (fold_.size() == 1) {
      // Single addend, no running sum yet: materialize it directly (move
      // when we own it) instead of running a 1-way pipeline.
      Matrix* own = owned_.empty() ? nullptr : &owned_.front();
      acc_ = own ? std::move(*own) : Matrix(*fold_.front());
      if (own) owned_bytes = 0;  // the owned buffer *became* acc_
      if (fopts.sorted_output && !acc_.is_sorted()) acc_.sort_columns();
    } else {
      acc_ = spkadd(MatrixPtrs<IndexT, ValueT>(fold_), fopts);
    }
    have_acc_ = true;
    acc_sorted_ = emits_sorted(opts_.method) || opts_.sorted_output;

    ++stats_.flushes;
    const std::size_t live =
        acc_before + acc_.storage_bytes() + owned_bytes +
        thread_runtime<IndexT, ValueT>().storage_bytes();
    stats_.peak_intermediate_bytes =
        std::max(stats_.peak_intermediate_bytes, live);

    staged_.clear();
    owned_.clear();
    staged_nnz_ = 0;
  }

  /// Fold any pending addends and borrow the running sum WITHOUT
  /// consuming it — snapshot readers (the aggregation service) assemble
  /// a consistent view from many accumulators' partials while each one
  /// keeps streaming afterwards. An accumulator that never saw an
  /// addend materializes (and keeps) the all-zero rows x cols sum. The
  /// reference is invalidated by any later add/flush/finalize.
  [[nodiscard]] const Matrix& partial_sum() {
    flush();
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
  /// accumulator resets to empty and can take the next stream. An
  /// accumulator that never saw an addend yields the all-zero rows x cols
  /// matrix.
  [[nodiscard]] Matrix finalize() {
    flush();
    Matrix out = have_acc_ ? std::move(acc_) : Matrix(rows_, cols_);
    acc_ = Matrix();
    have_acc_ = false;
    acc_sorted_ = true;
    return out;
  }

 private:
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
         staged_nnz_ >= kFoldRatio * acc_.nnz()))
      flush();
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
  Stats stats_;
};

extern template class Accumulator<std::int32_t, double>;

}  // namespace spkadd::core
