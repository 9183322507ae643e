#include "src/platform/thread_pool.h"

#include <algorithm>
#include <cstdlib>

#include "src/platform/device_profile.h"

namespace volut {

std::size_t default_worker_count(const DeviceProfile& profile) {
  std::size_t n = profile.threads != 0
                      ? profile.threads
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency());
  // Probed once per pool construction, before any workers exist — nothing
  // concurrently mutates the environment.
  if (const char* env = std::getenv("VOLUT_THREADS")) {  // NOLINT(concurrency-mt-unsafe)
    char* end = nullptr;
    // strtol, not strtoul: "-1" must be rejected, not wrapped to 2^64-1.
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= 65536) {
      n = std::size_t(v);
    }
  }
  return std::max<std::size_t>(1, n);
}

std::size_t default_worker_count() {
  return default_worker_count(DeviceProfile::host());
}

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0) {
    workers = default_worker_count();
  }
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Job::drain() {
  const std::size_t chunks = chunk_count(n, chunk);
  for (std::size_t c = next++; c < chunks; c = next++) run(body, n, chunk, c);
}

void ThreadPool::fork(Job& job) {
  bool posted = false;
  if (worker_count() > 1 && chunk_count(job.n, job.chunk) > 1) {
    MutexLock lk(mu_);
    if (job_ == nullptr) {
      job_ = &job;
      ++epoch_;
      posted = true;
    }
  }
  if (!posted) {  // serial, a single chunk, or the pool is busy: run inline
    job.drain();
    return;
  }
  cv_work_.notify_all();
  job.drain();
  // Every chunk is claimed, but workers may still be running theirs, and
  // the job lives on this stack: wait until each one has left it.
  MutexLock lk(mu_);
  while (joined_ != 0) cv_left_.wait(mu_);
  job_ = nullptr;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;  // epoch of the last job this worker joined
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lk(mu_);
      while (!stop_ && (job_ == nullptr || epoch_ == seen)) cv_work_.wait(mu_);
      if (stop_) return;
      job = job_;
      seen = epoch_;
      ++joined_;
    }
    job->drain();
    MutexLock lk(mu_);
    if (--joined_ == 0) cv_left_.notify_one();
  }
}

}  // namespace volut
