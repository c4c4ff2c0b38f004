// Portable binary matrix format.
//
// Text formats are slow to parse for the multi-gigabyte
// protein-similarity inputs the paper uses; this binary container streams
// a matrix exactly. Layout (little-endian):
//
//   magic "SPKB" | u32 version | u32 index_bytes | u32 value_bytes |
//   i64 rows | i64 cols | i64 nnz |
//   col_ptr[cols+1] | row_idx[nnz] | values[nnz]
#pragma once

#include <cstdint>
#include <iosfwd>

#include "matrix/csc.hpp"

namespace spkadd::io {

/// Serialize a CSC matrix. Throws std::runtime_error on stream failure.
void write_binary(std::ostream& out,
                  const CscMatrix<std::int32_t, double>& m);

/// Deserialize; validates the header (magic, version, element widths) and
/// the structural invariants of the arrays. Throws on any mismatch.
CscMatrix<std::int32_t, double> read_binary(std::istream& in);

}  // namespace spkadd::io
