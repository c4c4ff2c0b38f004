// Quickstart: build a few sparse matrices, add them with spkadd(), inspect
// the result, and see how method/options selection works.
//
//   ./examples/quickstart
#include <iostream>
#include <tuple>
#include <vector>

#include "core/spkadd.hpp"
#include "matrix/coo.hpp"
#include "matrix/validate.hpp"

int main() {
  using Csc = spkadd::CscMatrix<std::int32_t, double>;

  // 1. Build three 8x4 sparse matrices from triplets (COO -> CSC).
  auto build = [](std::initializer_list<std::tuple<int, int, double>> t) {
    spkadd::CooMatrix<std::int32_t, double> coo(8, 4);
    for (const auto& [r, c, v] : t)
      coo.push(static_cast<std::int32_t>(r), static_cast<std::int32_t>(c), v);
    coo.compress();
    return coo.to_csc();
  };
  std::vector<Csc> inputs{
      build({{1, 0, 3.0}, {3, 0, 2.0}, {6, 0, 1.0}, {0, 2, 1.0}}),
      build({{0, 0, 2.0}, {3, 0, 1.0}, {5, 0, 3.0}, {7, 3, 2.0}}),
      build({{5, 0, 2.0}, {7, 0, 1.0}, {1, 1, 4.0}}),
  };

  // 2. Add the whole collection: B = A1 + A2 + A3. Method::Auto picks a
  //    kernel per column chunk from Fig. 2's decision surface.
  const Csc sum = spkadd::core::spkadd(inputs);

  std::cout << "B = A1 + A2 + A3 is " << sum.rows() << "x" << sum.cols()
            << " with " << sum.nnz() << " stored entries\n";
  std::cout << "column 0 of B: ";
  const auto col = sum.column(0);
  for (std::size_t i = 0; i < col.nnz(); ++i)
    std::cout << "(" << col.rows[i] << ", " << col.vals[i] << ") ";
  std::cout << "\n";

  // 3. Every method computes the same sum; pick one explicitly if you know
  //    your regime (see the kernel table in docs/ARCHITECTURE.md and the
  //    paper's Table I).
  bool all_match = true;
  for (const auto method :
       {spkadd::core::Method::Heap, spkadd::core::Method::DenseAcc,
        spkadd::core::Method::Hash, spkadd::core::Method::SlidingHash}) {
    spkadd::core::Options opts;
    opts.method = method;
    const Csc again = spkadd::core::spkadd(inputs, opts);
    const bool match = spkadd::approx_equal(sum, again);
    all_match = all_match && match;
    std::cout << spkadd::core::method_name(method) << ": "
              << (match ? "matches" : "DIFFERS") << "\n";
  }

  // 4. The compression factor says how much the inputs overlapped.
  std::cout << "compression factor = "
            << spkadd::compression_factor(
                   std::span<const Csc>(inputs), sum)
            << " (1.0 = disjoint inputs)\n";
  return all_match ? 0 : 1;
}
