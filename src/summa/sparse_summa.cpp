#include "summa/sparse_summa.hpp"

#include "util/omp_compat.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/accumulator.hpp"
#include "core/spkadd.hpp"
#include "matrix/block.hpp"
#include "util/thread_control.hpp"
#include "util/timer.hpp"

namespace spkadd::summa {

using Csc = CscMatrix<std::int32_t, double>;

SummaConfig heap_pipeline(int grid) {
  SummaConfig c;
  c.grid = grid;
  c.local_accumulator = spgemm::Accumulator::Heap;
  c.sort_local_products = true;
  c.reduce_method = core::Method::Heap;
  return c;
}

SummaConfig sorted_hash_pipeline(int grid) {
  SummaConfig c;
  c.grid = grid;
  c.local_accumulator = spgemm::Accumulator::Hash;
  c.sort_local_products = true;
  c.reduce_method = core::Method::Hash;
  return c;
}

SummaConfig unsorted_hash_pipeline(int grid) {
  SummaConfig c;
  c.grid = grid;
  c.local_accumulator = spgemm::Accumulator::Hash;
  c.sort_local_products = false;  // the 20% local-multiply saving of Fig. 6
  c.reduce_method = core::Method::Hash;
  return c;
}

SummaConfig hybrid_pipeline(int grid) {
  SummaConfig c;
  c.grid = grid;
  c.local_accumulator = spgemm::Accumulator::Hash;
  c.sort_local_products = true;  // lets planned chunks use the heap corner
  c.reduce_method = core::Method::Auto;
  return c;
}

Csc assemble_blocks(const std::vector<std::vector<Csc>>& blocks,
                    const std::vector<std::int32_t>& row_bounds,
                    const std::vector<std::int32_t>& col_bounds) {
  const int g_rows = static_cast<int>(row_bounds.size()) - 1;
  const int g_cols = static_cast<int>(col_bounds.size()) - 1;
  const std::int32_t rows = row_bounds.back();
  const std::int32_t cols = col_bounds.back();

  std::vector<std::int32_t> counts(static_cast<std::size_t>(cols), 0);
  for (int bi = 0; bi < g_rows; ++bi)
    for (int bj = 0; bj < g_cols; ++bj) {
      const Csc& blk = blocks[static_cast<std::size_t>(bi)]
                             [static_cast<std::size_t>(bj)];
      const std::int32_t c0 = col_bounds[static_cast<std::size_t>(bj)];
      for (std::int32_t j = 0; j < blk.cols(); ++j)
        counts[static_cast<std::size_t>(c0 + j)] +=
            static_cast<std::int32_t>(blk.col_nnz(j));
    }
  std::vector<std::int32_t> col_ptr =
      util::counts_to_offsets(std::span<const std::int32_t>(counts));
  std::vector<std::int32_t> cursor(col_ptr.begin(), col_ptr.end() - 1);
  CscArray<std::int32_t> row_idx(static_cast<std::size_t>(col_ptr.back()));
  CscArray<double> values(static_cast<std::size_t>(col_ptr.back()));

  // Block rows are visited in ascending row order per global column, so the
  // assembled columns stay sorted when block columns are sorted.
  for (int bj = 0; bj < g_cols; ++bj) {
    const std::int32_t c0 = col_bounds[static_cast<std::size_t>(bj)];
    for (int bi = 0; bi < g_rows; ++bi) {
      const Csc& blk = blocks[static_cast<std::size_t>(bi)]
                             [static_cast<std::size_t>(bj)];
      const std::int32_t r0 = row_bounds[static_cast<std::size_t>(bi)];
      for (std::int32_t j = 0; j < blk.cols(); ++j) {
        const auto col = blk.column(j);
        auto& cur = cursor[static_cast<std::size_t>(c0 + j)];
        for (std::size_t i = 0; i < col.nnz(); ++i) {
          row_idx[static_cast<std::size_t>(cur)] = col.rows[i] + r0;
          values[static_cast<std::size_t>(cur)] = col.vals[i];
          ++cur;
        }
      }
    }
  }
  return Csc(rows, cols, std::move(col_ptr), std::move(row_idx),
             std::move(values));
}

namespace {

/// Everything the per-schedule runners share.
struct Plan {
  const Csc& a;
  const Csc& b;
  const SummaConfig& config;
  std::vector<std::int32_t> a_rows;
  std::vector<std::int32_t> inner;
  std::vector<std::int32_t> b_cols;
  spgemm::SpgemmOptions mult_opts;
  core::Options reduce_opts;
};

/// Buffered (pre-streaming) schedule: all g stage products materialized at
/// each process, then one one-shot SpKAdd. O(g * nnz) peak intermediates —
/// the baseline the streaming pipeline is measured against.
void run_buffered(const Plan& plan, std::vector<std::vector<Csc>>& c_blocks,
                  SummaResult& result) {
  const int g = plan.config.grid;
  for (int pi = 0; pi < g; ++pi) {
    for (int pj = 0; pj < g; ++pj) {
      std::vector<Csc> stage_products;
      stage_products.reserve(static_cast<std::size_t>(g));
      for (int s = 0; s < g; ++s) {
        util::WallTimer mult_timer;
        const Csc a_blk =
            extract_block(plan.a, plan.a_rows[static_cast<std::size_t>(pi)],
                          plan.a_rows[static_cast<std::size_t>(pi) + 1],
                          plan.inner[static_cast<std::size_t>(s)],
                          plan.inner[static_cast<std::size_t>(s) + 1]);
        const Csc b_blk =
            extract_block(plan.b, plan.inner[static_cast<std::size_t>(s)],
                          plan.inner[static_cast<std::size_t>(s) + 1],
                          plan.b_cols[static_cast<std::size_t>(pj)],
                          plan.b_cols[static_cast<std::size_t>(pj) + 1]);
        stage_products.push_back(
            spgemm::multiply(a_blk, b_blk, plan.mult_opts));
        result.stage_multiply_seconds[static_cast<std::size_t>(s)] +=
            mult_timer.seconds();
      }
      std::size_t live_nnz = 0;
      for (const Csc& p : stage_products) {
        live_nnz += p.nnz();
        result.max_stage_nnz = std::max(result.max_stage_nnz, p.nnz());
      }
      result.intermediate_nnz += live_nnz;
      result.peak_intermediate_nnz =
          std::max(result.peak_intermediate_nnz, live_nnz);

      util::WallTimer add_timer;
      c_blocks[static_cast<std::size_t>(pi)][static_cast<std::size_t>(pj)] =
          core::spkadd(stage_products, plan.reduce_opts);
      result.stage_spkadd_seconds[static_cast<std::size_t>(g) - 1] +=
          add_timer.seconds();
    }
  }
}

/// Streaming schedule: the g x g process loop runs OpenMP-parallel; each
/// worker thread owns one core::Accumulator (reshaped per process; the
/// thread's Runtime scratch persists across every stage, fold, and process
/// it serves) and emits each stage product in place into an
/// accumulator-owned staging buffer — no stage product is ever copied, and
/// at most stream_window of them are live per process.
void run_streaming(const Plan& plan, std::vector<std::vector<Csc>>& c_blocks,
                   SummaResult& result) {
  const int g = plan.config.grid;
  // Read only by the pragma below, which a build without OpenMP drops.
  [[maybe_unused]] const int outer = plan.config.threads > 0
                                         ? plan.config.threads
                                         : util::current_max_threads();
  // Inside the process-parallel region the per-process kernels run on the
  // (single-threaded) nested team; pin their scratch pools to one slot.
  spgemm::SpgemmOptions mult_opts = plan.mult_opts;
  core::Options reduce_opts = plan.reduce_opts;
  mult_opts.threads = 1;
  reduce_opts.threads = 1;

#pragma omp parallel num_threads(outer)
  {
    core::Accumulator<> acc(
        0, 0, reduce_opts,
        static_cast<std::size_t>(plan.config.stream_window));
    std::vector<double> mult_s(static_cast<std::size_t>(g), 0.0);
    std::vector<double> add_s(static_cast<std::size_t>(g), 0.0);
    std::size_t inter_nnz = 0;
    std::size_t max_stage = 0;

#pragma omp for collapse(2) schedule(dynamic, 1)
    for (int pi = 0; pi < g; ++pi) {
      for (int pj = 0; pj < g; ++pj) {
        acc.reshape(plan.a_rows[static_cast<std::size_t>(pi) + 1] -
                        plan.a_rows[static_cast<std::size_t>(pi)],
                    plan.b_cols[static_cast<std::size_t>(pj) + 1] -
                        plan.b_cols[static_cast<std::size_t>(pj)]);
        for (int s = 0; s < g; ++s) {
          util::WallTimer mult_timer;
          const Csc a_blk =
              extract_block(plan.a, plan.a_rows[static_cast<std::size_t>(pi)],
                            plan.a_rows[static_cast<std::size_t>(pi) + 1],
                            plan.inner[static_cast<std::size_t>(s)],
                            plan.inner[static_cast<std::size_t>(s) + 1]);
          const Csc b_blk =
              extract_block(plan.b, plan.inner[static_cast<std::size_t>(s)],
                            plan.inner[static_cast<std::size_t>(s) + 1],
                            plan.b_cols[static_cast<std::size_t>(pj)],
                            plan.b_cols[static_cast<std::size_t>(pj) + 1]);
          Csc& stage = acc.stage_buffer();
          spgemm::multiply_into(a_blk, b_blk, mult_opts, stage);
          mult_s[static_cast<std::size_t>(s)] += mult_timer.seconds();
          inter_nnz += stage.nnz();
          max_stage = std::max(max_stage, stage.nnz());

          util::WallTimer add_timer;
          acc.commit_staged();  // folds every stream_window stage products
          add_s[static_cast<std::size_t>(s)] += add_timer.seconds();
        }
        util::WallTimer fin_timer;
        c_blocks[static_cast<std::size_t>(pi)][static_cast<std::size_t>(pj)] =
            acc.finalize();
        add_s[static_cast<std::size_t>(g) - 1] += fin_timer.seconds();
      }
    }

#pragma omp critical(spkadd_summa_reduce_result)
    {
      for (int s = 0; s < g; ++s) {
        result.stage_multiply_seconds[static_cast<std::size_t>(s)] +=
            mult_s[static_cast<std::size_t>(s)];
        result.stage_spkadd_seconds[static_cast<std::size_t>(s)] +=
            add_s[static_cast<std::size_t>(s)];
      }
      result.intermediate_nnz += inter_nnz;
      result.max_stage_nnz = std::max(result.max_stage_nnz, max_stage);
      result.peak_intermediate_nnz = std::max(
          result.peak_intermediate_nnz, acc.stats().peak_staged_nnz);
    }
  }
}

}  // namespace

SummaResult multiply(const Csc& a, const Csc& b, const SummaConfig& config) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("summa: inner dimensions disagree");
  if (config.grid < 1) throw std::invalid_argument("summa: grid must be >= 1");
  if (config.stream_window < 1)
    throw std::invalid_argument("summa: stream_window must be >= 1");
  if (config.reduce_method == core::Method::Heap &&
      !config.sort_local_products)
    throw std::invalid_argument(
        "summa: heap reduction requires sorted local products");
  // Checked up front (not per block inside the workers): an exception from
  // the local multiply's own guard would escape an OpenMP structured block
  // and terminate instead of propagating.
  if (config.local_accumulator == spgemm::Accumulator::Heap && !a.is_sorted())
    throw std::invalid_argument(
        "summa: heap local multiply requires sorted columns of A");
  const int g = config.grid;

  // Block boundaries: A is partitioned g x g over (rows x inner), B over
  // (inner x cols). C inherits A's row and B's column partitions.
  Plan plan{a,
            b,
            config,
            partition_bounds(a.rows(), g),
            partition_bounds(a.cols(), g),
            partition_bounds(b.cols(), g),
            {},
            {}};
  plan.mult_opts.accumulator = config.local_accumulator;
  plan.mult_opts.sorted_output = config.sort_local_products;
  plan.mult_opts.threads = config.threads;
  plan.reduce_opts.method = config.reduce_method;
  plan.reduce_opts.inputs_sorted = config.sort_local_products;
  plan.reduce_opts.sorted_output = true;
  plan.reduce_opts.threads = config.threads;

  SummaResult result;
  result.stage_multiply_seconds.assign(static_cast<std::size_t>(g), 0.0);
  result.stage_spkadd_seconds.assign(static_cast<std::size_t>(g), 0.0);
  // Built row by row: the (vector, prototype) constructor would *copy* g*g
  // default matrices, tripping the zero-copy pin on the streaming path.
  std::vector<std::vector<Csc>> c_blocks(static_cast<std::size_t>(g));
  for (auto& row : c_blocks) row.resize(static_cast<std::size_t>(g));

  // Wall time of the two phases is accumulated across processes (and, when
  // streaming, across worker threads), exactly the quantity Fig. 6 stacks
  // per pipeline.
  if (config.streaming)
    run_streaming(plan, c_blocks, result);
  else
    run_buffered(plan, c_blocks, result);
  for (double s : result.stage_multiply_seconds) result.multiply_seconds += s;
  for (double s : result.stage_spkadd_seconds) result.spkadd_seconds += s;

  result.c = assemble_blocks(c_blocks, plan.a_rows, plan.b_cols);
  result.compression_factor =
      result.c.nnz() == 0
          ? 1.0
          : static_cast<double>(result.intermediate_nnz) /
                static_cast<double>(result.c.nnz());
  return result;
}

}  // namespace spkadd::summa
