#include "aeris/tensor/gemm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "aeris/tensor/rng.hpp"

namespace aeris {
namespace {

// Reference triple loop.
Tensor ref_matmul(const Tensor& a, const Tensor& b, bool ta, bool tb) {
  const std::int64_t m = ta ? a.dim(1) : a.dim(0);
  const std::int64_t k = ta ? a.dim(0) : a.dim(1);
  const std::int64_t n = tb ? b.dim(0) : b.dim(1);
  Tensor c({m, n});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        const float av = ta ? a.at2(p, i) : a.at2(i, p);
        const float bv = tb ? b.at2(j, p) : b.at2(p, j);
        acc += static_cast<double>(av) * bv;
      }
      c.at2(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

struct GemmCase {
  std::int64_t m, n, k;
  bool ta, tb;
};

class GemmParam : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmParam, MatchesReference) {
  const GemmCase p = GetParam();
  Philox rng(42);
  Tensor a(p.ta ? Shape{p.k, p.m} : Shape{p.m, p.k});
  Tensor b(p.tb ? Shape{p.n, p.k} : Shape{p.k, p.n});
  rng.fill_normal(a, 1, 0);
  rng.fill_normal(b, 1, 1);
  Tensor got = matmul(a, b, p.ta, p.tb);
  Tensor want = ref_matmul(a, b, p.ta, p.tb);
  const float tol = 1e-4f * static_cast<float>(p.k);
  ASSERT_EQ(got.shape(), want.shape());
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmParam,
    ::testing::Values(GemmCase{1, 1, 1, false, false},
                      GemmCase{3, 5, 7, false, false},
                      GemmCase{3, 5, 7, true, false},
                      GemmCase{3, 5, 7, false, true},
                      GemmCase{3, 5, 7, true, true},
                      GemmCase{64, 48, 96, false, false},
                      GemmCase{64, 48, 96, true, true},
                      GemmCase{1, 33, 17, false, true},
                      GemmCase{129, 1, 5, true, false}));

// Regression for the old `if (av == 0.0f) continue;` skip in the inner
// loop: a zero in A must still multiply B so NaN/Inf in B propagate into C
// (0 * Inf = NaN, 0 * NaN = NaN per IEEE-754).
TEST(Gemm, ZeroTimesNonFinitePropagates) {
  Tensor a({1, 2}, std::vector<float>{0.0f, 0.0f});
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor b({2, 2}, std::vector<float>{inf, 1.0f, nan, 2.0f});
  Tensor c = matmul(a, b);
  EXPECT_TRUE(std::isnan(c[0]));     // 0*Inf + 0*NaN = NaN + NaN
  EXPECT_FLOAT_EQ(c[1], 0.0f);       // 0*1 + 0*2: finite column unaffected
}

TEST(Gemm, NonFiniteInAPropagates) {
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a({2, 2}, std::vector<float>{inf, 0.0f, 1.0f, 1.0f});
  Tensor b({2, 2}, std::vector<float>{1.0f, 0.0f, 0.0f, 1.0f});
  Tensor c = matmul(a, b);
  EXPECT_TRUE(std::isinf(c.at2(0, 0)));
  EXPECT_TRUE(std::isnan(c.at2(0, 1)));  // inf*0 + 0*1
  EXPECT_FLOAT_EQ(c.at2(1, 0), 1.0f);

  // NaN/Inf in A rows read in place (rows 0-15) and in the packed tail
  // (row 17) reach exactly their own C rows.
  Philox rng(18);
  const std::int64_t m = 19, n = 40, k = 12, lda = 15;
  Tensor a2({m, lda}), b2({k, n});
  rng.fill_normal(a2, 1, 0);
  rng.fill_normal(b2, 1, 1);
  a2.at2(3, 5) = std::numeric_limits<float>::quiet_NaN();
  a2.at2(17, 0) = inf;
  Tensor c2({m, n});
  gemm(false, false, m, n, k, 1.0f, a2.data(), lda, b2.data(), n, 0.0f,
       c2.data(), n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float v = c2.at2(i, j);
      if (i == 3) {
        EXPECT_TRUE(std::isnan(v)) << j;
      } else if (i == 17) {
        EXPECT_FALSE(std::isfinite(v)) << j;
      } else {
        EXPECT_TRUE(std::isfinite(v)) << i << "," << j;
      }
    }
  }
}

// beta accumulation must work for every trans_a/trans_b combination.
TEST(Gemm, BetaAccumulateAllTransCombos) {
  Philox rng(13);
  const std::int64_t m = 5, n = 7, k = 3;
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      Tensor a(ta ? Shape{k, m} : Shape{m, k});
      Tensor b(tb ? Shape{n, k} : Shape{k, n});
      rng.fill_normal(a, 1, 0);
      rng.fill_normal(b, 1, 1);
      Tensor c({m, n});
      rng.fill_normal(c, 1, 2);
      Tensor want = c;
      // want = 1.5 * op(A)op(B) - 0.25 * want, computed per element.
      Tensor prod = matmul(a, b, ta, tb);
      for (std::int64_t i = 0; i < want.numel(); ++i) {
        want[i] = 1.5f * prod[i] - 0.25f * want[i];
      }
      gemm(ta, tb, m, n, k, 1.5f, a.data(), a.dim(1), b.data(), b.dim(1),
           -0.25f, c.data(), n);
      for (std::int64_t i = 0; i < c.numel(); ++i) {
        EXPECT_NEAR(c[i], want[i], 1e-4f) << "ta=" << ta << " tb=" << tb;
      }
    }
  }
}

// Raw-pointer interface on sub-blocks of larger buffers (lda/ldb/ldc
// larger than the logical dims, as used by the attention head and window
// shards), swept over the register tile: every m % 8 (the packed tail
// strip next to in-place row blocks), column counts around the 16-wide
// tail strip and the 32-wide strips, all trans combos. The ldc gaps must
// stay untouched.
TEST(Gemm, StridedSubBlocks) {
  Philox rng(17);
  const std::int64_t k = 19;
  std::uint64_t stream = 0;
  for (std::int64_t m = 1; m <= 17; ++m) {
    for (const std::int64_t n : {1, 8, 15, 16, 17, 31, 32, 33, 48, 96}) {
      for (const bool ta : {false, true}) {
        for (const bool tb : {false, true}) {
          const std::int64_t ar = ta ? k : m, ac = ta ? m : k;
          const std::int64_t br = tb ? n : k, bc = tb ? k : n;
          const std::int64_t lda = ac + 3, ldb = bc + 5, ldc = n + 7;
          Tensor abuf({ar, lda}), bbuf({br, ldb}), cbuf({m, ldc}, 99.0f);
          rng.fill_normal(abuf, 2, stream);
          rng.fill_normal(bbuf, 3, stream++);
          gemm(ta, tb, m, n, k, 1.0f, abuf.data(), lda, bbuf.data(), ldb, 0.0f,
               cbuf.data(), ldc);
          for (std::int64_t i = 0; i < m; ++i) {
            for (std::int64_t j = 0; j < n; ++j) {
              double acc = 0.0;
              for (std::int64_t p = 0; p < k; ++p) {
                const float av = ta ? abuf.at2(p, i) : abuf.at2(i, p);
                const float bv = tb ? bbuf.at2(j, p) : bbuf.at2(p, j);
                acc += static_cast<double>(av) * bv;
              }
              ASSERT_NEAR(cbuf.at2(i, j), acc, 1e-4 * k)
                  << "m=" << m << " n=" << n << " ta=" << ta << " tb=" << tb
                  << " at " << i << "," << j;
            }
            for (std::int64_t j = n; j < ldc; ++j) {
              ASSERT_EQ(cbuf.at2(i, j), 99.0f)
                  << "gap clobbered m=" << m << " n=" << n << " at " << i;
            }
          }
        }
      }
    }
  }
}

// Every alpha/beta store branch: (1, 0) assignment, (alpha, 0) overwrite,
// (alpha, 1) accumulate, and the general blend; on full and tail strips
// of both A paths (in place and packed via trans_a).
TEST(Gemm, EveryStoreBranchMatchesReference) {
  Philox rng(19);
  const std::int64_t m = 21, n = 45, k = 13;
  const float branches[][2] = {
      {1.0f, 0.0f}, {0.5f, 0.0f}, {1.0f, 1.0f}, {-2.0f, 1.0f}, {1.5f, -0.25f}};
  for (const bool ta : {false, true}) {
    Tensor a(ta ? Shape{k, m} : Shape{m, k}), b({k, n}), c0({m, n});
    rng.fill_normal(a, 1, 0);
    rng.fill_normal(b, 1, 1);
    rng.fill_normal(c0, 1, 2);
    const Tensor prod = ref_matmul(a, b, ta, false);
    for (const auto& ab : branches) {
      Tensor c = c0;
      gemm(ta, false, m, n, k, ab[0], a.data(), a.dim(1), b.data(), n, ab[1],
           c.data(), n);
      for (std::int64_t i = 0; i < c.numel(); ++i) {
        const float want = ab[0] * prod[i] + ab[1] * c0[i];
        ASSERT_NEAR(c[i], want, 1e-4f)
            << "alpha=" << ab[0] << " beta=" << ab[1] << " ta=" << ta
            << " at " << i;
      }
    }
  }
}

bool bitwise_equal(const Tensor& x, const Tensor& y) {
  return x.shape() == y.shape() &&
         std::memcmp(x.data(), y.data(), sizeof(float) * x.numel()) == 0;
}

// Large enough that the pool splits row blocks: pooled and serial results
// must agree bit for bit on every trans combo.
TEST(Gemm, SerialMatchesThreaded) {
  Philox rng(20);
  const std::int64_t m = 203, n = 97, k = 64;
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      Tensor a(ta ? Shape{k, m} : Shape{m, k});
      Tensor b(tb ? Shape{n, k} : Shape{k, n});
      rng.fill_normal(a, 1, 0);
      rng.fill_normal(b, 1, 1);
      Tensor c1({m, n}, 0.5f), c2({m, n}, 0.5f);
      gemm(ta, tb, m, n, k, 0.75f, a.data(), a.dim(1), b.data(), b.dim(1),
           1.0f, c1.data(), n);
      gemm_serial(ta, tb, m, n, k, 0.75f, a.data(), a.dim(1), b.data(),
                  b.dim(1), 1.0f, c2.data(), n);
      EXPECT_TRUE(bitwise_equal(c1, c2)) << "ta=" << ta << " tb=" << tb;
    }
  }
}

// Row-major A is read in place and transposed A is packed first; both
// feed the same micro-kernel in the same order, so op(A) stored either way
// gives the same bits, for every row count around the 8-row tile.
TEST(Gemm, TransposedAMatchesRowMajorABitwise) {
  Philox rng(21);
  const std::int64_t k = 23;
  for (const std::int64_t m : {1, 7, 8, 9, 16, 21, 203}) {
    for (const std::int64_t n : {5, 16, 33, 97}) {
      Tensor a({m, k}), b({k, n});
      rng.fill_normal(a, 1, static_cast<std::uint64_t>(m));
      rng.fill_normal(b, 1, static_cast<std::uint64_t>(n));
      Tensor at({k, m});
      for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t p = 0; p < k; ++p) at.at2(p, i) = a.at2(i, p);
      }
      Tensor c1({m, n}), c2({m, n});
      gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f,
           c1.data(), n);
      gemm(true, false, m, n, k, 1.0f, at.data(), m, b.data(), n, 0.0f,
           c2.data(), n);
      EXPECT_TRUE(bitwise_equal(c1, c2)) << "m=" << m << " n=" << n;
    }
  }
}

// The m % 8 tail rows of row-major A are packed while full 8-row blocks
// are read in place: a row must give the same bits on either path.
TEST(Gemm, PackedTailRowsMatchInPlaceRowsBitwise) {
  Philox rng(22);
  const std::int64_t m = 11, n = 40, k = 29;
  Tensor a({m, k}), b({k, n});
  rng.fill_normal(a, 1, 0);
  rng.fill_normal(b, 1, 1);
  for (std::int64_t i = 8; i < m; ++i) {  // tail rows repeat rows 0..2
    for (std::int64_t p = 0; p < k; ++p) a.at2(i, p) = a.at2(i - 8, p);
  }
  Tensor c({m, n});
  gemm(false, false, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(),
       n);
  for (std::int64_t i = 8; i < m; ++i) {
    EXPECT_EQ(std::memcmp(c.data() + i * n, c.data() + (i - 8) * n,
                          sizeof(float) * n),
              0)
        << "row " << i;
  }
}

// Stride padding of A and B is never read: NaN there must not reach C,
// on the in-place and packed A paths alike.
TEST(Gemm, StridePaddingIsNeverRead) {
  Philox rng(23);
  const std::int64_t m = 13, n = 37, k = 17;
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      const std::int64_t ar = ta ? k : m, ac = ta ? m : k;
      const std::int64_t br = tb ? n : k, bc = tb ? k : n;
      Tensor a({ar, ac}), b({br, bc});
      rng.fill_normal(a, 1, 0);
      rng.fill_normal(b, 1, 1);
      Tensor apad({ar, ac + 4}, nan), bpad({br, bc + 3}, nan);
      for (std::int64_t r = 0; r < ar; ++r) {
        std::memcpy(apad.data() + r * (ac + 4), a.data() + r * ac,
                    sizeof(float) * ac);
      }
      for (std::int64_t r = 0; r < br; ++r) {
        std::memcpy(bpad.data() + r * (bc + 3), b.data() + r * bc,
                    sizeof(float) * bc);
      }
      Tensor want({m, n}), got({m, n});
      gemm(ta, tb, m, n, k, 1.0f, a.data(), ac, b.data(), bc, 0.0f,
           want.data(), n);
      gemm(ta, tb, m, n, k, 1.0f, apad.data(), ac + 4, bpad.data(), bc + 3,
           0.0f, got.data(), n);
      EXPECT_TRUE(bitwise_equal(got, want)) << "ta=" << ta << " tb=" << tb;
    }
  }
}

// Two application threads dispatch threaded GEMMs at once: the loser of
// the pool's dispatch try-lock runs inline instead of overwriting the
// single job descriptor, and every result must equal the serial product
// bitwise. A hang trips the per-test TIMEOUT.
TEST(Gemm, ConcurrentThreadedCallersMatchSerial) {
  const std::int64_t m = 256, n = 96, k = 64;
  auto worker = [&](std::uint64_t seed, bool* ok) {
    Philox rng(seed);
    Tensor a({m, k}), b({n, k});
    rng.fill_normal(a, 1, 0);
    rng.fill_normal(b, 1, 1);
    Tensor want({m, n});
    gemm_serial(false, true, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
                want.data(), n);
    *ok = true;
    for (int rep = 0; rep < 50; ++rep) {
      Tensor got({m, n});
      gemm(false, true, m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f,
           got.data(), n);
      *ok = *ok && bitwise_equal(got, want);
    }
  };
  bool ok1 = false, ok2 = false;
  std::thread t1(worker, 31, &ok1);
  std::thread t2(worker, 32, &ok2);
  t1.join();
  t2.join();
  EXPECT_TRUE(ok1);
  EXPECT_TRUE(ok2);
}

TEST(Gemm, AlphaBetaAccumulate) {
  Tensor a({2, 2}, std::vector<float>{1, 2, 3, 4});
  Tensor b({2, 2}, std::vector<float>{1, 0, 0, 1});
  Tensor c({2, 2}, std::vector<float>{10, 10, 10, 10});
  gemm(false, false, 2, 2, 2, 2.0f, a.data(), 2, b.data(), 2, 0.5f, c.data(), 2);
  EXPECT_TRUE(c.allclose(Tensor({2, 2}, std::vector<float>{7, 9, 11, 13})));
}

TEST(Gemm, ZeroDimsAreNoOps) {
  Tensor c({0, 3});
  gemm(false, false, 0, 3, 2, 1.0f, nullptr, 2, nullptr, 3, 0.0f, c.data(), 3);
  SUCCEED();
}

TEST(Gemm, KZeroScalesCByBeta) {
  Tensor c({1, 2}, std::vector<float>{4, 6});
  gemm(false, false, 1, 2, 0, 1.0f, nullptr, 1, nullptr, 2, 0.5f, c.data(), 2);
  EXPECT_TRUE(c.allclose(Tensor({1, 2}, std::vector<float>{2, 3})));
}

TEST(Gemm, MatmulValidatesShapes) {
  Tensor a({2, 3});
  Tensor b({4, 5});
  EXPECT_THROW(matmul(a, b), std::invalid_argument);
  EXPECT_THROW(matmul(a.reshaped({6}), b), std::invalid_argument);
}

}  // namespace
}  // namespace aeris
