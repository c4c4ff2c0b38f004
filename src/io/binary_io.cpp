#include "io/binary_io.hpp"

#include <array>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "matrix/validate.hpp"

namespace spkadd::io {
namespace {

constexpr std::array<char, 4> kMagic{'S', 'P', 'K', 'B'};
constexpr std::uint32_t kVersion = 1;

template <class T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <class T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw std::runtime_error("binary matrix: truncated stream");
  return v;
}

template <class T>
void write_array(std::ostream& out, std::span<const T> data) {
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(T)));
}

template <class T>
std::vector<T> read_array(std::istream& in, std::size_t count) {
  std::vector<T> data(count);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  if (!in) throw std::runtime_error("binary matrix: truncated array");
  return data;
}

}  // namespace

void write_binary(std::ostream& out,
                  const CscMatrix<std::int32_t, double>& m) {
  out.write(kMagic.data(), kMagic.size());
  write_pod(out, kVersion);
  write_pod(out, static_cast<std::uint32_t>(sizeof(std::int32_t)));
  write_pod(out, static_cast<std::uint32_t>(sizeof(double)));
  write_pod(out, static_cast<std::int64_t>(m.rows()));
  write_pod(out, static_cast<std::int64_t>(m.cols()));
  write_pod(out, static_cast<std::int64_t>(m.nnz()));
  write_array(out, m.col_ptr());
  write_array(out, m.row_idx());
  write_array(out, m.values());
  if (!out) throw std::runtime_error("binary matrix: write failed");
}

CscMatrix<std::int32_t, double> read_binary(std::istream& in) {
  std::array<char, 4> magic{};
  in.read(magic.data(), magic.size());
  if (!in || magic != kMagic)
    throw std::runtime_error("binary matrix: bad magic");
  if (read_pod<std::uint32_t>(in) != kVersion)
    throw std::runtime_error("binary matrix: unsupported version");
  if (read_pod<std::uint32_t>(in) != sizeof(std::int32_t) ||
      read_pod<std::uint32_t>(in) != sizeof(double))
    throw std::runtime_error("binary matrix: element width mismatch");
  const auto rows = read_pod<std::int64_t>(in);
  const auto cols = read_pod<std::int64_t>(in);
  const auto nnz = read_pod<std::int64_t>(in);
  if (rows < 0 || cols < 0 || nnz < 0 || rows > INT32_MAX || cols > INT32_MAX)
    throw std::runtime_error("binary matrix: bad dimensions");
  auto col_ptr = read_array<std::int32_t>(
      in, static_cast<std::size_t>(cols) + 1);
  auto row_idx = read_array<std::int32_t>(in, static_cast<std::size_t>(nnz));
  auto values = read_array<double>(in, static_cast<std::size_t>(nnz));
  if (col_ptr.back() != nnz)
    throw std::runtime_error("binary matrix: col_ptr/nnz mismatch");
  CscMatrix<std::int32_t, double> m(
      static_cast<std::int32_t>(rows), static_cast<std::int32_t>(cols),
      std::move(col_ptr), std::move(row_idx), std::move(values));
  if (const auto check = validate(m, /*require_sorted=*/false); !check)
    throw std::runtime_error("binary matrix: " + check.reason);
  return m;
}

}  // namespace spkadd::io
