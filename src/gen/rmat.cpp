#include "gen/rmat.hpp"

#include "util/omp_compat.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace spkadd::gen {
namespace {

/// One R-MAT edge: descend the quadtree, one bit of (row, col) per level.
/// Rectangular matrices descend both dimensions while both have bits left,
/// then only the larger one (with quadrant probabilities folded to the
/// surviving axis).
std::pair<std::int32_t, std::int32_t> draw_edge(const RmatParams& p,
                                                util::Xoshiro256& rng) {
  std::int64_t r = 0, c = 0;
  const int levels = std::max(p.row_scale, p.col_scale);
  for (int level = levels - 1; level >= 0; --level) {
    double a = p.a, b = p.b, cq = p.c, dq = p.d;
    if (p.noise > 0) {
      // Symmetric multiplicative jitter, renormalized.
      a *= 1.0 + p.noise * (2.0 * rng.uniform() - 1.0);
      b *= 1.0 + p.noise * (2.0 * rng.uniform() - 1.0);
      cq *= 1.0 + p.noise * (2.0 * rng.uniform() - 1.0);
      dq *= 1.0 + p.noise * (2.0 * rng.uniform() - 1.0);
      const double s = a + b + cq + dq;
      a /= s; b /= s; cq /= s; dq /= s;
    }
    const bool has_row_bit = level < p.row_scale;
    const bool has_col_bit = level < p.col_scale;
    const double u = rng.uniform();
    bool lower;   // row bit
    bool right;   // col bit
    if (u < a) {
      lower = false; right = false;
    } else if (u < a + b) {
      lower = false; right = true;
    } else if (u < a + b + cq) {
      lower = true; right = false;
    } else {
      lower = true; right = true;
    }
    if (has_row_bit) r = (r << 1) | (lower ? 1 : 0);
    if (has_col_bit) c = (c << 1) | (right ? 1 : 0);
  }
  return {static_cast<std::int32_t>(r), static_cast<std::int32_t>(c)};
}

}  // namespace

CooMatrix<std::int32_t, double> rmat_coo(const RmatParams& p) {
  if (p.row_scale < 0 || p.row_scale > 30 || p.col_scale < 0 ||
      p.col_scale > 30)
    throw std::invalid_argument("rmat_coo: scale must be in [0, 30]");
  const double psum = p.a + p.b + p.c + p.d;
  if (psum < 0.999 || psum > 1.001)
    throw std::invalid_argument(
        "rmat_coo: quadrant probabilities must sum to 1");

  const auto rows = static_cast<std::int32_t>(1) << p.row_scale;
  const auto cols = static_cast<std::int32_t>(1) << p.col_scale;
  CooMatrix<std::int32_t, double> m(rows, cols);
  m.entries().resize(static_cast<std::size_t>(p.edges));

  const util::Xoshiro256 root(p.seed);
  // Fixed 64-way stream split => identical output for any thread count.
  constexpr std::uint64_t kStreams = 64;
  const std::uint64_t per =
      (p.edges + kStreams - 1) / kStreams;

#pragma omp parallel for schedule(dynamic, 1)
  for (std::int64_t s = 0; s < static_cast<std::int64_t>(kStreams); ++s) {
    util::Xoshiro256 rng =
        root.split(static_cast<std::uint64_t>(s) + 0x9e37);
    const std::uint64_t lo = static_cast<std::uint64_t>(s) * per;
    const std::uint64_t hi = std::min<std::uint64_t>(p.edges, lo + per);
    for (std::uint64_t e = lo; e < hi; ++e) {
      auto [r, c] = draw_edge(p, rng);
      // Values uniform in (0, 1]: nonzero, reproducible.
      const double v = 1.0 - rng.uniform();
      m.entries()[e] = {r, c, v};
    }
  }
  m.compress();
  return m;
}

CscMatrix<std::int32_t, double> rmat_csc(const RmatParams& p) {
  return rmat_coo(p).to_csc();
}

std::vector<CscMatrix<std::int32_t, double>> split_columns(
    const CscMatrix<std::int32_t, double>& m, int k) {
  if (k <= 0) throw std::invalid_argument("split_columns: k must be positive");
  if (m.cols() % k != 0)
    throw std::invalid_argument("split_columns: cols must be divisible by k");
  const std::int32_t slab = m.cols() / k;
  std::vector<CscMatrix<std::int32_t, double>> out;
  out.reserve(static_cast<std::size_t>(k));
  const auto cp = m.col_ptr();
  for (int i = 0; i < k; ++i) {
    const std::int32_t j0 = slab * i;
    const auto base = cp[static_cast<std::size_t>(j0)];
    std::vector<std::int32_t> col_ptr(static_cast<std::size_t>(slab) + 1);
    for (std::int32_t j = 0; j <= slab; ++j)
      col_ptr[static_cast<std::size_t>(j)] =
          cp[static_cast<std::size_t>(j0 + j)] - base;
    const auto lo = static_cast<std::size_t>(base);
    const auto hi =
        static_cast<std::size_t>(cp[static_cast<std::size_t>(j0 + slab)]);
    CscArray<std::int32_t> row_idx(
        m.row_idx().begin() + static_cast<std::ptrdiff_t>(lo),
        m.row_idx().begin() + static_cast<std::ptrdiff_t>(hi));
    CscArray<double> values(
        m.values().begin() + static_cast<std::ptrdiff_t>(lo),
        m.values().begin() + static_cast<std::ptrdiff_t>(hi));
    out.emplace_back(m.rows(), slab, std::move(col_ptr), std::move(row_idx),
                     std::move(values));
  }
  return out;
}

}  // namespace spkadd::gen
