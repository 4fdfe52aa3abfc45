// Tests for the src/runtime atomic-claiming thread pool and its
// data-parallel primitives, plus the cross-layer determinism contract:
// parallel results must be bitwise identical to serial ones at every
// thread count.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "cmp/contact_solver.hpp"
#include "common/rng.hpp"
#include "nn/gemm.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"
#include "tape/ops.hpp"
#include "tape/tensor.hpp"

using namespace neurfill;

namespace {

/// Restores the environment/hardware default thread count on scope exit so
/// tests cannot leak a pool size into each other.
struct ThreadCountGuard {
  ~ThreadCountGuard() { runtime::set_thread_count(0); }
};

/// Runs `fn` once per requested thread count and returns the results.
template <typename Fn>
auto at_thread_counts(const std::vector<int>& counts, Fn&& fn)
    -> std::vector<decltype(fn())> {
  ThreadCountGuard guard;
  std::vector<decltype(fn())> results;
  results.reserve(counts.size());
  for (const int t : counts) {
    runtime::set_thread_count(t);
    EXPECT_EQ(runtime::thread_count(), t);
    results.push_back(fn());
  }
  return results;
}

}  // namespace

TEST(ThreadPool, ReportsRequestedConcurrency) {
  runtime::ThreadPool pool(3);
  EXPECT_EQ(pool.threads(), 3);
  runtime::ThreadPool serial(1);
  EXPECT_EQ(serial.threads(), 1);
}

TEST(ThreadPool, ExecutesEveryBlockExactlyOnce) {
  runtime::ThreadPool pool(4);
  constexpr std::size_t kBlocks = 1000;
  std::vector<std::atomic<int>> hits(kBlocks);
  pool.for_blocks(kBlocks, [&](std::size_t b) { ++hits[b]; });
  for (std::size_t b = 0; b < kBlocks; ++b) EXPECT_EQ(hits[b].load(), 1);
}

TEST(ThreadPool, ZeroBlocksIsANoOp) {
  runtime::ThreadPool pool(2);
  pool.for_blocks(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ThreadPool, NestedCallDegradesToSerialInline) {
  runtime::ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  std::atomic<bool> saw_worker_context{false};
  pool.for_blocks(16, [&](std::size_t) {
    if (runtime::ThreadPool::inside_worker()) saw_worker_context = true;
    // A nested call must not deadlock; it runs inline on this participant.
    pool.for_blocks(4, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_TRUE(saw_worker_context.load());
  EXPECT_EQ(inner_total.load(), 16 * 4);
}

TEST(ThreadPool, FirstExceptionPropagatesAndPoolSurvives) {
  runtime::ThreadPool pool(4);
  EXPECT_THROW(
      pool.for_blocks(64,
                      [&](std::size_t b) {
                        if (b == 7) throw std::runtime_error("block 7");
                      }),
      std::runtime_error);
  // The pool must be fully quiesced and reusable after an error.
  std::atomic<int> ran{0};
  pool.for_blocks(32, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 32);
}

TEST(ParallelFor, EmptyRangeNeverInvokesBody) {
  runtime::parallel_for(8, 0,
                        [](std::size_t, std::size_t) { FAIL() << "no body"; });
}

TEST(ParallelFor, GrainLargerThanRangeIsOneInlineBlock) {
  int calls = 0;
  runtime::parallel_for(100, 7, [&](std::size_t begin, std::size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 7u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, CoversEveryIterationExactlyOnce) {
  ThreadCountGuard guard;
  runtime::set_thread_count(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  runtime::parallel_for(7, kN, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "iteration " << i;
}

TEST(ParallelFor, ExceptionPropagatesToCaller) {
  ThreadCountGuard guard;
  runtime::set_thread_count(4);
  EXPECT_THROW(runtime::parallel_for(
                   1, 100,
                   [](std::size_t begin, std::size_t) {
                     if (begin == 41) throw std::invalid_argument("bad block");
                   }),
               std::invalid_argument);
}

TEST(ParallelReduce, EmptyRangeReturnsIdentity) {
  const double r = runtime::parallel_reduce(
      4, 0, 42.0, [](std::size_t, std::size_t) { return 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(r, 42.0);
}

TEST(ParallelReduce, BitwiseIdenticalAcrossThreadCounts) {
  // Summing many irrational-ish doubles is order-sensitive in floating
  // point, so bitwise equality here proves the combination order is fixed.
  constexpr std::size_t kN = 100000;
  std::vector<double> v(kN);
  Rng rng(123);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0) * 1e3;
  const auto sum = [&] {
    return runtime::parallel_reduce(
        97, kN, 0.0,
        [&](std::size_t b0, std::size_t b1) {
          double s = 0.0;
          for (std::size_t k = b0; k < b1; ++k) s += v[k];
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const auto results = at_thread_counts({1, 2, 5}, sum);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(RuntimeConfig, SetThreadCountRebuildsPool) {
  ThreadCountGuard guard;
  runtime::set_thread_count(3);
  EXPECT_EQ(runtime::thread_count(), 3);
  runtime::set_thread_count(1);
  EXPECT_EQ(runtime::thread_count(), 1);
  runtime::set_thread_count(0);  // environment/hardware default
  EXPECT_GE(runtime::thread_count(), 1);
}

TEST(Determinism, GemmBitwiseIdenticalAcrossThreadCounts) {
  const int M = 37, N = 29, K = 53;
  std::vector<float> A(static_cast<std::size_t>(M) * K);
  std::vector<float> B(static_cast<std::size_t>(K) * N);
  Rng rng(7);
  for (auto& x : A) x = static_cast<float>(rng.normal());
  for (auto& x : B) x = static_cast<float>(rng.normal());
  const auto run = [&] {
    // All three kernels: A/B are reinterpreted with compatible element
    // counts (MxK == KxM, KxN == NxK) so one buffer pair drives them all.
    std::vector<float> C(static_cast<std::size_t>(M) * N, 0.5f);
    nn::gemm_nn(M, N, K, A.data(), B.data(), C.data(), /*accumulate=*/true);
    std::vector<float> Cnt(static_cast<std::size_t>(M) * N);
    nn::gemm_nt(M, N, K, A.data(), B.data(), Cnt.data(), /*accumulate=*/false);
    std::vector<float> Ctn(static_cast<std::size_t>(M) * N);
    nn::gemm_tn(M, N, K, A.data(), B.data(), Ctn.data(), /*accumulate=*/false);
    C.insert(C.end(), Cnt.begin(), Cnt.end());
    C.insert(C.end(), Ctn.begin(), Ctn.end());
    return C;
  };
  const auto results = at_thread_counts({1, 2, 8}, run);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(Determinism, ConvForwardBackwardBitwiseIdentical) {
  Rng rng(11);
  const int C = 3, O = 5, H = 16, W = 16, k = 3;
  std::vector<float> xd(static_cast<std::size_t>(C) * H * W);
  std::vector<float> wd(static_cast<std::size_t>(O) * C * k * k);
  std::vector<float> bd(static_cast<std::size_t>(O));
  for (auto& v : xd) v = static_cast<float>(rng.normal());
  for (auto& v : wd) v = static_cast<float>(rng.normal(0.0, 0.1));
  for (auto& v : bd) v = static_cast<float>(rng.normal());
  const auto run = [&] {
    nn::Tensor x = nn::Tensor::from_data({1, C, H, W}, xd, true);
    nn::Tensor w = nn::Tensor::from_data({O, C, k, k}, wd, true);
    nn::Tensor b = nn::Tensor::from_data({O}, bd, true);
    nn::Tensor y = nn::conv2d(x, w, b, /*stride=*/1, /*padding=*/1);
    nn::Tensor loss = nn::mse_loss(y, nn::Tensor::zeros(y.shape()));
    loss.backward();
    std::vector<float> out(y.data(), y.data() + y.numel());
    out.insert(out.end(), x.grad(), x.grad() + x.numel());
    out.insert(out.end(), w.grad(), w.grad() + w.numel());
    out.insert(out.end(), b.grad(), b.grad() + b.numel());
    return out;
  };
  const auto results = at_thread_counts({1, 2, 8}, run);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

TEST(Determinism, ContactSolverBitwiseIdentical) {
  const std::size_t R = 24, C = 24;
  GridD height(R, C, 0.0);
  Rng rng(19);
  for (auto& h : height) h = rng.uniform(0.0, 50.0);
  ElasticContactSolver::Options opt;
  opt.max_iterations = 60;
  const auto run = [&] {
    ElasticContactSolver solver(R, C, opt);
    return solver.solve(height, /*nominal_pressure=*/1.5);
  };
  const auto results = at_thread_counts({1, 2, 8}, run);
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    ASSERT_EQ(results[0][i], results[1][i]) << "cell " << i;
    ASSERT_EQ(results[0][i], results[2][i]) << "cell " << i;
  }
}

namespace {

/// Double-precision reference for all three GEMM layouts, plus the running
/// sum of |a*b| used to bound the float kernel's rounding error.
void reference_gemm(int variant, int M, int N, int K, const float* A,
                    const float* B, std::vector<double>& C,
                    std::vector<double>& Cabs) {
  C.assign(static_cast<std::size_t>(M) * N, 0.0);
  Cabs.assign(static_cast<std::size_t>(M) * N, 0.0);
  for (int i = 0; i < M; ++i)
    for (int j = 0; j < N; ++j)
      for (int k = 0; k < K; ++k) {
        double a = 0.0, b = 0.0;
        switch (variant) {
          case 0:  // nn: A(M,K), B(K,N)
            a = A[i * K + k];
            b = B[k * N + j];
            break;
          case 1:  // nt: A(M,K), B(N,K)
            a = A[i * K + k];
            b = B[j * K + k];
            break;
          default:  // tn: A(K,M), B(K,N)
            a = A[k * M + i];
            b = B[k * N + j];
        }
        C[static_cast<std::size_t>(i) * N + j] += a * b;
        Cabs[static_cast<std::size_t>(i) * N + j] += std::abs(a * b);
      }
}

void run_variant(int variant, int M, int N, int K, const float* A,
                 const float* B, float* C, bool accumulate) {
  switch (variant) {
    case 0: nn::gemm_nn(M, N, K, A, B, C, accumulate); break;
    case 1: nn::gemm_nt(M, N, K, A, B, C, accumulate); break;
    default: nn::gemm_tn(M, N, K, A, B, C, accumulate);
  }
}

}  // namespace

// Shapes chosen to hit every edge of the packed kernel: degenerate dims,
// primes that divide none of the tile sizes, and the register/cache tile
// boundaries themselves off by one (Mr = 6, Nr = 16, Kc = 256, Mc = 96).
TEST(PackedGemm, EdgeShapesMatchDoubleReference) {
  const int shapes[][3] = {
      {1, 1, 1},   {1, 17, 5},  {7, 1, 9},    {11, 23, 1},  {13, 17, 19},
      {97, 101, 103}, {5, 15, 12}, {6, 16, 96}, {7, 17, 97},  {12, 32, 255},
      {96, 16, 256}, {97, 33, 257}, {191, 47, 64},
  };
  Rng rng(23);
  for (const auto& s : shapes) {
    const int M = s[0], N = s[1], K = s[2];
    std::vector<float> A(static_cast<std::size_t>(std::max(M * K, K * M)));
    std::vector<float> B(static_cast<std::size_t>(std::max(K * N, N * K)));
    for (auto& v : A) v = static_cast<float>(rng.normal());
    for (auto& v : B) v = static_cast<float>(rng.normal());
    for (int variant = 0; variant < 3; ++variant) {
      for (const bool accumulate : {false, true}) {
        std::vector<float> C(static_cast<std::size_t>(M) * N);
        for (std::size_t i = 0; i < C.size(); ++i)
          C[i] = accumulate ? 0.25f * static_cast<float>(i % 7) : -99.0f;
        std::vector<double> ref, ref_abs;
        reference_gemm(variant, M, N, K, A.data(), B.data(), ref, ref_abs);
        if (accumulate)
          for (std::size_t i = 0; i < ref.size(); ++i)
            ref[i] += static_cast<double>(C[i]);
        run_variant(variant, M, N, K, A.data(), B.data(), C.data(),
                    accumulate);
        for (std::size_t i = 0; i < C.size(); ++i) {
          const double tol = 1e-4 * ref_abs[i] + 1e-4;
          ASSERT_NEAR(static_cast<double>(C[i]), ref[i], tol)
              << "variant " << variant << " accumulate " << accumulate
              << " shape " << M << "x" << N << "x" << K << " elem " << i;
        }
      }
    }
  }
}

// K = 300 crosses the Kc = 256 slab boundary, so per-element sums span two
// packed slabs; the fixed slab order must keep results bitwise identical at
// every thread count, for both overwrite and accumulate epilogues.
TEST(PackedGemm, SlabCrossingBitwiseIdenticalAcrossThreadCounts) {
  const int M = 23, N = 31, K = 300;
  Rng rng(29);
  std::vector<float> A(static_cast<std::size_t>(M) * K);
  std::vector<float> B(static_cast<std::size_t>(K) * N);
  for (auto& v : A) v = static_cast<float>(rng.normal());
  for (auto& v : B) v = static_cast<float>(rng.normal());
  const auto run = [&] {
    std::vector<float> out;
    for (int variant = 0; variant < 3; ++variant) {
      std::vector<float> C(static_cast<std::size_t>(M) * N, 0.125f);
      run_variant(variant, M, N, K, A.data(), B.data(), C.data(),
                  /*accumulate=*/true);
      out.insert(out.end(), C.begin(), C.end());
    }
    return out;
  };
  const auto results = at_thread_counts({1, 2, 8}, run);
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}
