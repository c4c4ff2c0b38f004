// Simulated distributed sparse SUMMA (stationary-C) — the paper's Fig. 5
// use case and the Fig. 6 experiment.
//
// The real system runs on an MPI process grid (CombBLAS on Cori); Fig. 6
// however reports *computation only* ("we show the runtime of both
// computational steps by excluding the communication costs"), i.e. the sum
// over stages of the local SpGEMM time plus the final SpKAdd reduction
// time. Those kernels are identical in shared memory, so this module runs
// the same schedule in-process:
//
//   * A and B are partitioned over a g x g logical grid by row/col ranges;
//   * stage s broadcasts A(:, s-blocks) along grid rows and B(s-blocks, :)
//     along grid columns (a no-op here — blocks are simply referenced);
//   * process (i, j) computes the stage product A_is * B_sj locally;
//   * the per-process stage products are reduced with SpKAdd — the
//     operation this library exists for. k == g.
//
// Two schedules implement that reduction:
//   * Streaming (default) — each process feeds every stage product straight
//     into a persistent core::Accumulator (emitted in place into an
//     accumulator-owned staging buffer, zero copies), which folds every
//     `stream_window` products into the running block sum. Peak live
//     intermediates per process drop from g stage products to at most
//     stream_window — the paper's §V memory-constrained extension applied
//     to its own headline application. The g x g process loop runs
//     OpenMP-parallel, one accumulator (and thus one persistent Runtime of
//     per-thread scratch) per worker thread, reshaped across processes.
//   * Buffered — the pre-streaming schedule: materialize all g stage
//     products, then one-shot SpKAdd. Kept as the comparison baseline;
//     produces the bit-identical C (all SpKAdd folds accumulate strictly
//     left to right, so the streaming fold chain is the same FP reduction).
//
// The three Fig. 6 pipelines map to configurations:
//   Heap          — sorted local multiplies + Heap SpKAdd (CombBLAS legacy)
//   Sorted Hash   — sorted local multiplies + Hash SpKAdd
//   Unsorted Hash — UNSORTED local multiplies + Hash SpKAdd (hash needs no
//                   sorted inputs, so the local multiply skips its sort)
#pragma once

#include <cstdint>
#include <vector>

#include "core/options.hpp"
#include "matrix/csc.hpp"
#include "spgemm/local_spgemm.hpp"

namespace spkadd::summa {

struct SummaConfig {
  int grid = 4;  ///< g: the process grid is g x g and k = g stages
  spgemm::Accumulator local_accumulator = spgemm::Accumulator::Hash;
  /// Sort the columns of each stage product. Must be true when
  /// reduce_method is Heap (heap SpKAdd needs sorted inputs).
  bool sort_local_products = true;
  core::Method reduce_method = core::Method::Hash;
  /// Streaming mode: worker threads for the process-parallel g x g loop
  /// (each simulated process runs its kernels single-threaded). Buffered
  /// mode: threads per simulated process. 0 = omp default.
  int threads = 0;
  /// Streaming (default) vs buffered schedule; see the header comment.
  bool streaming = true;
  /// Streaming only: stage products staged per process before a fold into
  /// the running sum — the §V memory bound. Must be >= 1.
  int stream_window = 2;
};

/// Named presets matching the bars of Fig. 6.
SummaConfig heap_pipeline(int grid);
SummaConfig sorted_hash_pipeline(int grid);
SummaConfig unsorted_hash_pipeline(int grid);
/// Per-chunk hybrid reduction (Method::Auto): each stage-product fold of
/// three or more addends picks its kernel per nnz-balanced column chunk,
/// so skewed blocks stop forcing one whole-matrix method, and a fold of a
/// sorted pair takes the 2-way tree. Bit-identical to the single-kernel
/// pipelines (every fold is a strict left fold).
SummaConfig hybrid_pipeline(int grid);

struct SummaResult {
  CscMatrix<std::int32_t, double> c;  ///< assembled global product
  double multiply_seconds = 0;        ///< total local-SpGEMM time
  double spkadd_seconds = 0;          ///< total SpKAdd reduction time
  std::size_t intermediate_nnz = 0;   ///< sum nnz of all stage products
  double compression_factor = 0;      ///< intermediate nnz / nnz(C)
  /// Max total nnz of stage products simultaneously live at any simulated
  /// process: at most stream_window products' worth when streaming, all g
  /// when buffered — the memory bound the streaming pipeline exists for.
  std::size_t peak_intermediate_nnz = 0;
  std::size_t max_stage_nnz = 0;  ///< largest single stage product
  /// Per-stage phase times, summed over processes (size g). Streaming
  /// charges each fold to the stage whose commit triggered it and the
  /// final fold to stage g-1; buffered charges its one-shot reduction to
  /// stage g-1.
  std::vector<double> stage_multiply_seconds;
  std::vector<double> stage_spkadd_seconds;
};

/// Run the simulated SUMMA schedule; returns assembled C plus the two
/// computational phase times of Fig. 6.
SummaResult multiply(const CscMatrix<std::int32_t, double>& a,
                     const CscMatrix<std::int32_t, double>& b,
                     const SummaConfig& config);

/// Reassemble a g x g grid of re-based blocks into one global matrix
/// (inverse of the block partition). Exposed for tests.
CscMatrix<std::int32_t, double> assemble_blocks(
    const std::vector<std::vector<CscMatrix<std::int32_t, double>>>& blocks,
    const std::vector<std::int32_t>& row_bounds,
    const std::vector<std::int32_t>& col_bounds);

}  // namespace spkadd::summa
