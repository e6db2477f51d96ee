// Tests for the sparse linear algebra substrate (linalg/): local CSC and
// the CombBLAS-lite 2D SpMV baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/ygm.hpp"
#include "linalg/combblas_lite.hpp"
#include "linalg/csc.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::linalg::combblas_lite;
using ygm::linalg::csc_matrix;
using ygm::linalg::spmv_reference;
using ygm::linalg::triplet;

std::vector<triplet> random_triplets(std::uint64_t n, std::uint64_t nnz,
                                     std::uint64_t seed) {
  ygm::xoshiro256 rng(seed);
  std::vector<triplet> t;
  t.reserve(nnz);
  for (std::uint64_t i = 0; i < nnz; ++i) {
    t.push_back({rng.below(n), rng.below(n),
                 static_cast<double>(1 + rng.below(9))});
  }
  return t;
}

std::vector<double> random_vector(std::uint64_t n, std::uint64_t seed) {
  ygm::xoshiro256 rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform() * 2 - 1;
  return x;
}

// ------------------------------------------------------------------- CSC

TEST(Csc, EmptyMatrixMultipliesToZero) {
  const auto m = csc_matrix::from_triplets(4, 3, {});
  EXPECT_EQ(m.num_nonzeros(), 0u);
  std::vector<double> y(4, 1.0);
  std::vector<double> x(3, 5.0);
  m.multiply_add(x, y);
  EXPECT_EQ(y, (std::vector<double>{1, 1, 1, 1}));
}

TEST(Csc, BuildsAndMultipliesSmallMatrix) {
  // [ 1 0 2 ]
  // [ 0 3 0 ]
  const auto m = csc_matrix::from_triplets(
      2, 3, {{0, 2, 2.0}, {1, 1, 3.0}, {0, 0, 1.0}});
  EXPECT_EQ(m.num_nonzeros(), 3u);
  std::vector<double> y(2, 0.0);
  m.multiply_add(std::vector<double>{1, 10, 100}, y);
  EXPECT_EQ(y[0], 201.0);
  EXPECT_EQ(y[1], 30.0);
}

TEST(Csc, SumsDuplicateEntries) {
  const auto m = csc_matrix::from_triplets(
      2, 2, {{0, 0, 1.0}, {0, 0, 2.5}, {1, 1, 1.0}});
  EXPECT_EQ(m.num_nonzeros(), 2u);
  std::vector<double> y(2, 0.0);
  m.multiply_add(std::vector<double>{1, 1}, y);
  EXPECT_EQ(y[0], 3.5);
}

TEST(Csc, MatchesReferenceOnRandomMatrices) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const std::uint64_t n = 50;
    const auto t = random_triplets(n, 400, seed);
    const auto x = random_vector(n, seed + 100);
    const auto m = csc_matrix::from_triplets(n, n, t);
    std::vector<double> y(n, 0.0);
    m.multiply_add(x, y);
    const auto ref = spmv_reference(n, t, x);
    for (std::uint64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i], ref[i], 1e-9) << "row " << i;
    }
  }
}

TEST(Csc, ForEachVisitsEveryNonzero) {
  const auto t = random_triplets(20, 60, 9);
  const auto m = csc_matrix::from_triplets(20, 20, t);
  double sum = 0;
  std::uint64_t count = 0;
  m.for_each([&](std::uint64_t, std::uint64_t, double v) {
    sum += v;
    ++count;
  });
  double expect_sum = 0;
  for (const auto& e : t) expect_sum += e.value;
  EXPECT_EQ(count, m.num_nonzeros());
  EXPECT_NEAR(sum, expect_sum, 1e-9);
}

TEST(Csc, RejectsOutOfRangeIndices) {
  EXPECT_THROW(csc_matrix::from_triplets(2, 2, {{2, 0, 1.0}}), ygm::error);
  EXPECT_THROW(csc_matrix::from_triplets(2, 2, {{0, 5, 1.0}}), ygm::error);
}

TEST(Csc, MultiplyValidatesShapes) {
  const auto m = csc_matrix::from_triplets(2, 3, {});
  std::vector<double> y2(2), x3(3), x2(2);
  EXPECT_THROW(m.multiply_add(x2, y2), ygm::error);
  EXPECT_THROW(m.multiply_add(x3, x3), ygm::error);
}

// --------------------------------------------------------- CombBLAS-lite

class CombBlasGrids : public ::testing::TestWithParam<int> {};

TEST_P(CombBlasGrids, MatchesReferenceOnRandomMatrix) {
  const int nranks = GetParam();
  const std::uint64_t n = 40;
  const std::uint64_t nnz = 300;

  ygm::launch({.nranks = nranks}, [&](sim::comm& c) {
    // Each rank contributes a slice of the triplets (construction routes
    // them to their 2D owners).
    const auto all = random_triplets(n, nnz, 77);
    std::vector<triplet> mine;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (static_cast<int>(i % static_cast<std::size_t>(c.size())) ==
          c.rank()) {
        mine.push_back(all[i]);
      }
    }
    combblas_lite A(c, n, std::move(mine));

    const auto x = random_vector(n, 5);
    // Feed the diagonal ranks their x blocks.
    std::vector<double> x_block;
    if (A.on_diagonal()) {
      x_block.assign(x.begin() + static_cast<std::ptrdiff_t>(
                                     A.block_begin(A.grid_col())),
                     x.begin() + static_cast<std::ptrdiff_t>(
                                     A.block_end(A.grid_col())));
    } else {
      x_block.assign(A.block_size(A.grid_col()), 0.0);
    }
    const auto y_block = A.spmv(x_block);

    // Collect y from the diagonal and compare against the serial oracle.
    const auto ref = spmv_reference(n, all, x);
    if (A.on_diagonal()) {
      const std::uint64_t r0 = A.block_begin(A.grid_row());
      for (std::uint64_t i = 0; i < y_block.size(); ++i) {
        EXPECT_NEAR(y_block[i], ref[r0 + i], 1e-9) << "row " << r0 + i;
      }
    }
    EXPECT_GT(A.bcast_bytes() + A.reduce_bytes(), 0u);
  });
}

INSTANTIATE_TEST_SUITE_P(SquareGrids, CombBlasGrids,
                         ::testing::Values(1, 4, 9, 16));

TEST(CombBlas, RejectsNonSquareWorld) {
  ygm::launch({.nranks = 6}, [](sim::comm& c) {
    EXPECT_THROW(combblas_lite(c, 10, {}), ygm::error);
  });
}

TEST(CombBlas, RepeatedMultipliesAreConsistent) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    const std::uint64_t n = 16;
    const auto all = random_triplets(n, 80, 3);
    std::vector<triplet> mine = c.rank() == 0 ? all : std::vector<triplet>{};
    combblas_lite A(c, n, std::move(mine));

    const auto x = random_vector(n, 8);
    std::vector<double> x_block(A.block_size(A.grid_col()), 0.0);
    if (A.on_diagonal()) {
      for (std::uint64_t i = 0; i < x_block.size(); ++i) {
        x_block[i] = x[A.block_begin(A.grid_col()) + i];
      }
    }
    const auto y1 = A.spmv(x_block);
    const auto y2 = A.spmv(x_block);
    EXPECT_EQ(y1, y2);
  });
}

}  // namespace
