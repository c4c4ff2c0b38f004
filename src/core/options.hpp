// Options, method selection and instrumentation counters for SpKAdd.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace spkadd::core {

/// The algorithm family of the paper (§II-B, §II-C, §III-B) plus the
/// library-style reference baseline standing in for MKL.
enum class Method {
  TwoWayIncremental,  ///< Alg. 1: fold pairwise, left to right
  TwoWayTree,         ///< balanced binary tree of pairwise adds
  Heap,               ///< Alg. 3: k-way merge through a min-heap
  Spa,                ///< Alg. 4: dense sparse-accumulator of length m
  Hash,               ///< Alg. 5/6: per-column hash table
  SlidingHash,        ///< Alg. 7/8: cache-capped hash slid over row ranges
  ReferenceIncremental,  ///< MKL-substitute pairwise add, folded
  ReferenceTree,         ///< MKL-substitute pairwise add, tree
  Auto,               ///< 2-way tree for a sorted pair, else Hybrid
  Hybrid,             ///< pick a kernel PER nnz-balanced column chunk
  DenseAcc,           ///< dense bitmap accumulator with SIMD dense adds
};

[[nodiscard]] std::string method_name(Method m);

/// Inverse of method_name(): parses both the exact display name and the
/// usual CLI spellings ("hash", "sliding-hash", "2way-tree", "hybrid",
/// ...), case- and punctuation-insensitively. Throws std::invalid_argument
/// with the accepted names on unknown input. Round-trip guarantee:
/// method_from_name(method_name(m)) == m for every Method.
[[nodiscard]] Method method_from_name(const std::string& name);

/// How the column loop cuts and drains its chunks (detail::cut_chunks).
/// A planned call (Method::Auto/Hybrid) always runs cost-balanced chunks;
/// for it, Static drains them statically and the others `dynamic,1`.
/// For a single-kernel method: Dynamic, the paper's choice, drains
/// 8-column blocks `dynamic,1` (OpenMP's `dynamic,8`); Static runs one
/// contiguous block per thread (`schedule(static)`, kept for the ablation
/// bench); NnzBalanced cuts ~8 cost-balanced chunks per thread from the
/// per-column input-nnz totals, so skewed (RMAT) columns no longer
/// serialize behind a fixed chunk width. Results are bit-identical
/// across schedules.
enum class Schedule { Dynamic, Static, NnzBalanced };

[[nodiscard]] std::string schedule_name(Schedule s);

/// Inverse of schedule_name(); same parsing/throwing contract as
/// method_from_name().
[[nodiscard]] Schedule schedule_from_name(const std::string& name);

/// Operation counters, filled when Options::counters is non-null. These
/// measure the "Work" and "I/O (from memory)" columns of Table I so the
/// complexity bench can verify the analytic growth rates.
struct OpCounters {
  std::uint64_t merge_ops = 0;    ///< 2-way merge element steps
  std::uint64_t heap_ops = 0;     ///< heap inserts + extract-mins
  std::uint64_t hash_probes = 0;  ///< hash slots inspected (incl. collisions)
  std::uint64_t spa_touches = 0;  ///< SPA reads+writes
  std::uint64_t dense_touches = 0;  ///< dense-accumulator scatter/add steps
  std::uint64_t bytes_moved = 0;  ///< streamed matrix bytes (I/O model)
  std::uint64_t table_inits = 0;  ///< hash-table slots initialized

  // Per-kernel chunk-dispatch counts of the per-chunk planner
  // (Method::Auto and Method::Hybrid): how many nnz-balanced column
  // chunks each kernel was chosen for (the observable decision mix of the
  // per-chunk Fig. 2 surface). Zero under every single-kernel method and
  // under Auto's 2-way corner. The planner never picks the SPA, so
  // chunks_spa always reads 0; it stays for readers of the counter set
  // (the perfbench ledger).
  std::uint64_t chunks_heap = 0;     ///< chunks dispatched to the heap merge
  std::uint64_t chunks_spa = 0;      ///< always 0: the SPA is not planned
  std::uint64_t chunks_hash = 0;     ///< chunks dispatched to plain hash
  std::uint64_t chunks_sliding = 0;  ///< chunks dispatched to sliding hash
  std::uint64_t chunks_dense = 0;    ///< chunks dispatched to the dense acc

  OpCounters& operator+=(const OpCounters& o) {
    merge_ops += o.merge_ops;
    heap_ops += o.heap_ops;
    hash_probes += o.hash_probes;
    spa_touches += o.spa_touches;
    dense_touches += o.dense_touches;
    bytes_moved += o.bytes_moved;
    table_inits += o.table_inits;
    chunks_heap += o.chunks_heap;
    chunks_spa += o.chunks_spa;
    chunks_hash += o.chunks_hash;
    chunks_sliding += o.chunks_sliding;
    chunks_dense += o.chunks_dense;
    return *this;
  }

  /// Total "work" events across data structures (Table I's Work column).
  [[nodiscard]] std::uint64_t work() const {
    return merge_ops + heap_ops + hash_probes + spa_touches + dense_touches;
  }

  /// Total planned chunks dispatched (0 under single-kernel methods).
  [[nodiscard]] std::uint64_t chunks_total() const {
    return chunks_heap + chunks_spa + chunks_hash + chunks_sliding +
           chunks_dense;
  }

  /// Compact "heap/spa/hash/sliding/dense" rendering of the planner's
  /// decision mix for bench tables, e.g. "2/0/29/1/4".
  [[nodiscard]] std::string chunk_mix() const {
    return std::to_string(chunks_heap) + "/" + std::to_string(chunks_spa) +
           "/" + std::to_string(chunks_hash) + "/" +
           std::to_string(chunks_sliding) + "/" +
           std::to_string(chunks_dense);
  }
};

/// Sparse→dense promotion policy of the streaming Accumulator (ROADMAP
/// item 1, mirroring the HLL sparse→dense representation switch): a
/// running partial-sum column whose fill fraction crosses `promote_fill`
/// is promoted to dense column storage and subsequent addends fold into
/// it with vectorized scatter/dense adds; finalize()/partial_sum() demote
/// back to CSC, so every output format — and every output *byte* — is
/// unchanged. Promotion requires Options::sorted_output (demotion emits
/// rows ascending) and a column-kernel method; TwoWay*/Reference* folds
/// never promote.
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

struct Options {
  Method method = Method::Auto;

  /// Emit columns with strictly ascending row indices. Hash/SPA can skip
  /// their final sort when false (the "unsorted hash" of Fig. 6); merge and
  /// heap methods always produce sorted output.
  bool sorted_output = true;

  /// Declare that the *inputs* have sorted columns. Merge/heap require this
  /// and throw otherwise; sliding hash uses it to slice row ranges by binary
  /// search instead of scanning.
  bool inputs_sorted = true;

  /// 0 = current omp_get_max_threads().
  int threads = 0;

  /// LLC budget for sliding hash (bytes); 0 = detected machine value (or
  /// the util::set_llc_override if active).
  std::size_t llc_bytes = 0;

  /// Force the per-thread hash table entry cap for SlidingHash (the x-axis
  /// of Fig. 4). 0 = derive from llc_bytes / threads as in Alg. 7/8.
  std::size_t max_table_entries = 0;

  Schedule schedule = Schedule::Dynamic;

  /// When non-null, kernels count their operations here (not thread-safe to
  /// share across concurrent spkadd() calls; one counter per call).
  OpCounters* counters = nullptr;

  /// Sparse→dense promotion policy consumed by the streaming Accumulator
  /// (travels with the fold options so service shards inherit it without
  /// extra plumbing). Ignored by one-shot spkadd() calls.
  DensePolicy dense;

  /// Internal (Accumulator) contract: when non-null, a byte per column;
  /// nonzero marks a column the fold must SKIP — its views are never
  /// gathered and its output column is empty. The Accumulator points this
  /// at its dense-resident mask so promoted columns bypass the sparse fold
  /// entirely. Only the column-kernel drivers honor it; spkadd() rejects
  /// TwoWay*/Reference* methods under a mask.
  const std::uint8_t* skip_cols = nullptr;
};

}  // namespace spkadd::core
