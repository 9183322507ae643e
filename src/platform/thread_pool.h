// Fixed-size thread pool with one fork-join primitive, parallel_chunks.
//
// The CUDA client in the paper parallelizes kNN search, interpolation and
// colorization across GPU threads; our CPU substrate uses this pool with the
// same decomposition (fixed-size chunks of points or octree cells). Device
// profiles (device_profile.h) cap the worker count to model mobile-class
// hardware.
//
// A fork posts one job — the body as a pointer plus a thunk, and an atomic
// chunk cursor, all on the caller's stack — and wakes the workers once.
// Workers and the caller then claim chunk indices from the cursor until none
// are left, so nothing is allocated per fork or per chunk. The pool holds
// one job at a time: a fork that finds the slot taken (a nested fork from
// inside a chunk, or a second thread forking concurrently) runs all of its
// chunks inline on its own thread, which cannot deadlock.
//
// Lock discipline is compiler-checked: the job slot, its epoch, the count of
// workers inside the job and the stop flag are VOLUT_GUARDED_BY the pool
// mutex (core/mutex.h vocabulary), and a clang build with
// VOLUT_THREAD_SAFETY=ON rejects any unlocked access at compile time
// (-Werror=thread-safety).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/core/mutex.h"
#include "src/core/thread_annotations.h"

namespace volut {

struct DeviceProfile;
struct TsaProbe;

/// Worker count a pool should default to on `profile`: the profile's thread
/// cap, or every hardware thread when the profile leaves it at 0. The
/// VOLUT_THREADS environment variable (positive integer) overrides both —
/// the knob for pinning reproducible parallelism in CI and benchmarks.
std::size_t default_worker_count(const DeviceProfile& profile);
/// default_worker_count for the host machine's profile.
std::size_t default_worker_count();

/// Number of fixed chunks of `chunk` (>= 1) indices covering [0, n).
constexpr std::size_t chunk_count(std::size_t n, std::size_t chunk) {
  return (n + chunk - 1) / chunk;
}

/// Calls `visit(c, begin, end)` for chunk `c` of [0, n) cut into fixed chunks
/// of `chunk` indices. The single source of truth for chunk boundaries: the
/// serial sweep (for_each_chunk) and the pool's workers both go through it,
/// so poolless and pooled sweeps hand the body the same triples.
template <typename Visit>
void visit_chunk(std::size_t n, std::size_t chunk, std::size_t c,
                 const Visit& visit) {
  visit(c, c * chunk, std::min(n, (c + 1) * chunk));
}

/// The fixed-chunk sweep run inline: calls `visit(chunk_index, begin, end)`
/// for every chunk of [0, n), in chunk order.
template <typename Visit>
void for_each_chunk(std::size_t n, std::size_t chunk, const Visit& visit) {
  for (std::size_t c = 0; c < chunk_count(n, chunk); ++c) {
    visit_chunk(n, chunk, c, visit);
  }
}

class ThreadPool {
 public:
  /// Creates a pool with `workers` threads (>=1; 0 means
  /// default_worker_count(): the device profile's cap or, failing that,
  /// hardware concurrency, overridable via VOLUT_THREADS).
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// Splits [0, n) into fixed-size chunks of `chunk` indices (0 counts as 1)
  /// and runs `body(chunk_index, begin, end)` once per chunk, blocking until
  /// all chunks complete. The chunk boundaries depend only on (n, chunk) —
  /// never on the worker count — so per-chunk partial results (e.g.
  /// floating-point sums) combine identically at any parallelism. The
  /// calling thread runs chunks too. Runs inline on a single-worker pool,
  /// for a single chunk, and when the pool is busy with another fork.
  /// `body` must not throw.
  template <typename Body>
  void parallel_chunks(std::size_t n, std::size_t chunk, const Body& body)
      VOLUT_EXCLUDES(mu_) {
    Job job{[](const void* b, std::size_t jn, std::size_t jchunk,
               std::size_t c) {
              visit_chunk(jn, jchunk, c, *static_cast<const Body*>(b));
            },
            &body, n, std::max<std::size_t>(1, chunk)};
    fork(job);
  }

 private:
  /// Compile-fail probes (tests/static/thread_safety_probe.cc) reach the
  /// guarded members to prove each VOLUT_GUARDED_BY below is load-bearing:
  /// an unlocked access must fail to compile under -Werror=thread-safety.
  friend struct TsaProbe;

  /// One fork, living on the forking thread's stack.
  struct Job {
    void (*run)(const void* body, std::size_t n, std::size_t chunk,
                std::size_t c);
    const void* body;
    std::size_t n;
    std::size_t chunk;
    std::atomic<std::size_t> next{0};  // chunk cursor

    /// Claims and runs chunks until every chunk has been claimed.
    void drain();
  };

  /// Posts `job` and runs it to completion, or runs it inline.
  void fork(Job& job) VOLUT_EXCLUDES(mu_);
  void worker_loop() VOLUT_EXCLUDES(mu_);

  Mutex mu_;
  CondVar cv_work_;  // a job was posted, or stop_ was set
  CondVar cv_left_;  // the last worker left the job
  /// The active job; set from post until every worker has left it, so a
  /// fork that finds it non-null knows the pool is busy.
  Job* job_ VOLUT_GUARDED_BY(mu_) = nullptr;
  /// Jobs posted so far: a worker joins each posted job at most once.
  std::uint64_t epoch_ VOLUT_GUARDED_BY(mu_) = 0;
  /// Workers currently inside *job_.
  std::size_t joined_ VOLUT_GUARDED_BY(mu_) = 0;
  bool stop_ VOLUT_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  // last: the threads use every member
};

/// parallel_chunks through `pool`, or the same fixed-chunk sweep inline when
/// `pool` is null. Chunk boundaries depend only on (n, chunk) either way, so
/// per-chunk partial results combine identically at any parallelism.
template <typename Body>
void run_chunked(ThreadPool* pool, std::size_t n, std::size_t chunk,
                 const Body& body) {
  if (pool != nullptr) {
    pool->parallel_chunks(n, chunk, body);
  } else {
    for_each_chunk(n, std::max<std::size_t>(1, chunk), body);
  }
}

}  // namespace volut
