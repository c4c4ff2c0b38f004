// Options, method selection and instrumentation counters for SpKAdd.
//
// Options carries the choices of the paper's algorithm and nothing else:
// the method, sortedness, the team size T, the cache budget M of Alg. 7/8
// and a counter sink. State of a caller of SpKAdd (the streaming
// Accumulator's fold trigger) lives with that caller.
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
  Hash,               ///< Alg. 5/6: per-column hash table
  SlidingHash,        ///< Alg. 7/8: cache-capped hash slid over row ranges
  ReferenceIncremental,  ///< MKL-substitute pairwise add, folded
  ReferenceTree,         ///< MKL-substitute pairwise add, tree
  Auto,               ///< 2-way tree for a sorted pair, else the planner
  DenseAcc,           ///< Alg. 4: SPA of length m, touched rows as bitmaps
};

/// The pairwise families (Alg. 1, the 2-way tree, the MKL-substitute
/// reference): they fold two matrices at a time, so they run no column
/// kernel. Every other method runs the column-kernel driver (kway.hpp).
[[nodiscard]] constexpr bool is_pairwise(Method m) {
  return m == Method::TwoWayIncremental || m == Method::TwoWayTree ||
         m == Method::ReferenceIncremental || m == Method::ReferenceTree;
}

/// Whether `m` refuses unsorted input columns (the merge families, paper
/// Table I). Auto is safe either way: the planner picks the heap kernel
/// only when Options::inputs_sorted is declared.
[[nodiscard]] constexpr bool requires_sorted_inputs(Method m) {
  return is_pairwise(m) || m == Method::Heap;
}

/// Whether `m` emits sorted columns whatever Options::sorted_output says:
/// the merges sort by construction and DenseAcc's bitmap scan emits rows
/// ascending.
[[nodiscard]] constexpr bool emits_sorted(Method m) {
  return requires_sorted_inputs(m) || m == Method::DenseAcc;
}

[[nodiscard]] std::string method_name(Method m);

/// Inverse of method_name(): parses both the exact display name and the
/// usual CLI spellings ("hash", "sliding-hash", "2way-tree", "dense",
/// ...), case- and punctuation-insensitively. Throws std::invalid_argument
/// with the accepted names on unknown input. Round-trip guarantee:
/// method_from_name(method_name(m)) == m for every Method.
[[nodiscard]] Method method_from_name(const std::string& name);

/// Operation counters, filled when Options::counters is non-null. These
/// measure the "Work" and "I/O (from memory)" columns of Table I so the
/// complexity bench can verify the analytic growth rates.
struct OpCounters {
  std::uint64_t merge_ops = 0;    ///< 2-way merge element steps
  std::uint64_t heap_ops = 0;     ///< heap inserts + extract-mins
  std::uint64_t hash_probes = 0;  ///< hash slots inspected (incl. collisions)
  std::uint64_t dense_touches = 0;  ///< dense-accumulator scatter/add steps
  std::uint64_t bytes_moved = 0;  ///< streamed matrix bytes (I/O model)
  std::uint64_t table_inits = 0;  ///< hash-table slots initialized

  // Per-kernel chunk-dispatch counts of the per-chunk planner
  // (Method::Auto): how many nnz-balanced column chunks each kernel was
  // chosen for (the observable decision mix of the per-chunk Fig. 2
  // surface). Zero under every single-kernel method and under Auto's
  // 2-way corner.
  std::uint64_t chunks_heap = 0;     ///< chunks dispatched to the heap merge
  std::uint64_t chunks_spa = 0;      ///< always 0; perfbench still reads it
  std::uint64_t chunks_hash = 0;     ///< chunks dispatched to plain hash
  std::uint64_t chunks_sliding = 0;  ///< chunks dispatched to sliding hash
  std::uint64_t chunks_dense = 0;    ///< chunks dispatched to the dense acc

  OpCounters& operator+=(const OpCounters& o) {
    merge_ops += o.merge_ops;
    heap_ops += o.heap_ops;
    hash_probes += o.hash_probes;
    dense_touches += o.dense_touches;
    bytes_moved += o.bytes_moved;
    table_inits += o.table_inits;
    chunks_heap += o.chunks_heap;
    chunks_hash += o.chunks_hash;
    chunks_sliding += o.chunks_sliding;
    chunks_dense += o.chunks_dense;
    return *this;
  }

  /// Total "work" events across data structures (Table I's Work column).
  [[nodiscard]] std::uint64_t work() const {
    return merge_ops + heap_ops + hash_probes + dense_touches;
  }

  /// Total planned chunks dispatched (0 under single-kernel methods).
  [[nodiscard]] std::uint64_t chunks_total() const {
    return chunks_heap + chunks_hash + chunks_sliding + chunks_dense;
  }

  /// Compact "heap/hash/sliding/dense" rendering of the planner's
  /// decision mix for bench tables, e.g. "2/29/1/4".
  [[nodiscard]] std::string chunk_mix() const {
    return std::to_string(chunks_heap) + "/" + std::to_string(chunks_hash) +
           "/" + std::to_string(chunks_sliding) + "/" +
           std::to_string(chunks_dense);
  }
};

struct Options {
  Method method = Method::Auto;

  /// Emit columns with strictly ascending row indices. The hash kernels
  /// skip their final sort when false (the "unsorted hash" of Fig. 6);
  /// merge, heap and DenseAcc always produce sorted output.
  bool sorted_output = true;

  /// Declare that the *inputs* have sorted columns. Merge/heap require this
  /// and throw otherwise; sliding hash uses it to slice row ranges by binary
  /// search instead of scanning.
  bool inputs_sorted = true;

  /// 0 = current omp_get_max_threads().
  int threads = 0;

  /// LLC budget M of Alg. 7/8 and of the planner's cache tests (bytes);
  /// 0 = the detected machine value (util::effective_llc_bytes).
  std::size_t llc_bytes = 0;

  /// Force the per-thread hash table entry cap for SlidingHash (the x-axis
  /// of Fig. 4). 0 = derive from llc_bytes / threads as in Alg. 7/8.
  std::size_t max_table_entries = 0;

  /// When non-null, kernels count their operations here (not thread-safe to
  /// share across concurrent spkadd() calls; one counter per call).
  OpCounters* counters = nullptr;
};

}  // namespace spkadd::core
