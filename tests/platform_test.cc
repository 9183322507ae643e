// Tests for the thread pool and device profiles.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/platform/device_profile.h"
#include "src/platform/thread_pool.h"
#include "src/platform/timer.h"

namespace volut {
namespace {

TEST(ThreadPoolTest, ParallelChunksCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10'000);
  pool.parallel_chunks(hits.size(), 256,
                       [&](std::size_t, std::size_t b, std::size_t e) {
                         for (std::size_t i = b; i < e; ++i) {
                           hits[i].fetch_add(1);
                         }
                       });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelChunksSmallRangeRunsInline) {
  ThreadPool pool(4);
  int total = 0;  // no synchronization: must run on the calling thread
  pool.parallel_chunks(
      10, 256, [&](std::size_t, std::size_t b, std::size_t e) {
        total += int(e - b);
      });
  EXPECT_EQ(total, 10);
}

TEST(ThreadPoolTest, ZeroWorkerCountUsesHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.worker_count(), 1u);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 5; ++round) {
    pool.parallel_chunks(20, 1, [&count](std::size_t, std::size_t,
                                         std::size_t) { ++count; });
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ChunkTriplesIndependentOfWorkerCount) {
  // The body sees the same (chunk_index, begin, end) triples with no pool
  // and at any worker count; only the order of the calls may differ.
  using Triple = std::array<std::size_t, 3>;
  constexpr std::size_t kN = 10'007;
  constexpr std::size_t kChunk = 64;
  auto triples = [&](ThreadPool* pool) {
    std::vector<Triple> seen(chunk_count(kN, kChunk));
    run_chunked(pool, kN, kChunk,
                [&seen](std::size_t c, std::size_t b, std::size_t e) {
                  seen[c] = {c, b, e};
                });
    return seen;
  };
  const std::vector<Triple> serial = triples(nullptr);
  ASSERT_EQ(serial.size(), 157u);
  EXPECT_EQ(serial.front(), (Triple{0, 0, 64}));
  EXPECT_EQ(serial.back(), (Triple{156, 9984, kN}));
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(workers);
    EXPECT_EQ(triples(&pool), serial) << workers << " workers";
  }
}

TEST(ThreadPoolTest, ConcurrentParallelChunksFromMultipleThreads) {
  // The pool runs one fork at a time; a caller that finds it busy runs its
  // chunks inline. Every caller must still see all of its own indices
  // covered.
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr std::size_t kRange = 4096;
  std::array<std::atomic<std::size_t>, kCallers> covered{};
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &covered, c] {
      for (int round = 0; round < 50; ++round) {
        pool.parallel_chunks(
            kRange, 64,
            [&covered, c](std::size_t, std::size_t b, std::size_t e) {
              covered[std::size_t(c)].fetch_add(e - b);
            });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (const auto& sum : covered) EXPECT_EQ(sum.load(), 50 * kRange);
}

TEST(ThreadPoolTest, NestedParallelChunksFromPoolTaskDoesNotDeadlock) {
  // A fork issued from inside a chunk finds the pool busy and runs inline.
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_covered{0};
  pool.parallel_chunks(4, 1, [&pool, &inner_covered](std::size_t,
                                                     std::size_t,
                                                     std::size_t) {
    pool.parallel_chunks(
        256, 32, [&inner_covered](std::size_t, std::size_t b, std::size_t e) {
          inner_covered.fetch_add(e - b);
        });
  });
  EXPECT_EQ(inner_covered.load(), 4u * 256u);
}

// Saves/clears VOLUT_THREADS around each test so these assertions hold even
// when the ambient environment pins the knob, and a mid-test failure cannot
// leak an override into later tests.
class VolutThreadsEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const char* current = std::getenv("VOLUT_THREADS");
    if (current != nullptr) saved_ = current;
    unsetenv("VOLUT_THREADS");
  }
  void TearDown() override {
    if (saved_.has_value()) {
      setenv("VOLUT_THREADS", saved_->c_str(), 1);
    } else {
      unsetenv("VOLUT_THREADS");
    }
  }

 private:
  std::optional<std::string> saved_;
};

TEST_F(VolutThreadsEnvTest, DefaultWorkerCountFollowsDeviceProfile) {
  // Capped profiles pin the pool size; the host profile uses every hardware
  // thread.
  EXPECT_EQ(default_worker_count(DeviceProfile::orange_pi()), 4u);
  EXPECT_GE(default_worker_count(DeviceProfile::host()), 1u);
  EXPECT_GE(default_worker_count(), 1u);
}

TEST_F(VolutThreadsEnvTest, VolutThreadsEnvOverridesDefault) {
  ASSERT_EQ(setenv("VOLUT_THREADS", "3", 1), 0);
  EXPECT_EQ(default_worker_count(), 3u);
  EXPECT_EQ(default_worker_count(DeviceProfile::orange_pi()), 3u);
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 3u);
  // Malformed, non-positive or absurd values fall back to the profile.
  ASSERT_EQ(setenv("VOLUT_THREADS", "zero", 1), 0);
  EXPECT_EQ(default_worker_count(DeviceProfile::orange_pi()), 4u);
  ASSERT_EQ(setenv("VOLUT_THREADS", "0", 1), 0);
  EXPECT_EQ(default_worker_count(DeviceProfile::orange_pi()), 4u);
  ASSERT_EQ(setenv("VOLUT_THREADS", "-1", 1), 0);
  EXPECT_EQ(default_worker_count(DeviceProfile::orange_pi()), 4u);
  ASSERT_EQ(setenv("VOLUT_THREADS", "9999999999", 1), 0);
  EXPECT_EQ(default_worker_count(DeviceProfile::orange_pi()), 4u);
  ASSERT_EQ(unsetenv("VOLUT_THREADS"), 0);
  // Explicit worker counts are never overridden.
  ThreadPool explicit_pool(2);
  EXPECT_EQ(explicit_pool.worker_count(), 2u);
}

TEST(DeviceProfileTest, ProfilesAreDistinct) {
  const auto desktop = DeviceProfile::desktop();
  const auto mobile = DeviceProfile::orange_pi();
  EXPECT_LT(desktop.latency_scale, mobile.latency_scale);
  EXPECT_EQ(mobile.threads, 4u);
  EXPECT_GT(mobile.memory_budget_bytes, 0u);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.elapsed_us(), 0.0);
  EXPECT_GE(t.elapsed_ms() * 1000.0, t.elapsed_us() * 0.5);
}

}  // namespace
}  // namespace volut
