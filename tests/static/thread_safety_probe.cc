// Compile-fail probes: proof that every VOLUT_GUARDED_BY in the annotated
// subsystems is load-bearing, not decorative.
//
// CMake registers one ctest entry per VOLUT_TSA_PROBE_* macro (clang only,
// label "static"). Each macro selects exactly ONE unlocked access to a
// guarded private member; compiled with -Wthread-safety
// -Werror=thread-safety the TU must FAIL to compile, and the ctest entry is
// inverted with WILL_FAIL. Consequence: deleting the corresponding
// VOLUT_GUARDED_BY from the header makes this TU compile cleanly, the
// inverted test goes red, and the annotation cannot silently rot. With no
// macro defined the TU is the positive control — it must compile
// warning-free, which also type-checks the annotation vocabulary itself.
//
// TsaProbe is a friend of each annotated class, so the probes reach the
// guarded members directly: the only way a probe stops failing is the
// annotation being removed, not the member going out of reach.
#include <cstddef>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/thread_pool.h"
#include "src/sr/pipeline.h"

namespace volut {

struct TsaProbe {
  static std::size_t probe_thread_pool(ThreadPool& pool) {
#if defined(VOLUT_TSA_PROBE_JOB)
    return pool.job_ != nullptr ? 1u : 0u;  // unlocked read — must not compile
#elif defined(VOLUT_TSA_PROBE_EPOCH)
    return std::size_t(pool.epoch_);  // unlocked read of epoch_
#elif defined(VOLUT_TSA_PROBE_JOINED)
    return pool.joined_;  // unlocked read of joined_
#elif defined(VOLUT_TSA_PROBE_STOP)
    return pool.stop_ ? 1u : 0u;  // unlocked read of stop_
#else
    (void)pool;
    return 0;
#endif
  }

  static std::size_t probe_pipeline(const SrPipeline& pipeline) {
#if defined(VOLUT_TSA_PROBE_SR_SLOTS)
    return pipeline.free_slots_.size();  // unlocked read of the slot pool
#else
    (void)pipeline;
    return 0;
#endif
  }

  static std::size_t probe_metrics(const MetricsRegistry& registry) {
#if defined(VOLUT_TSA_PROBE_METRICS_MAP)
    return registry.counters_.size();  // unlocked read of the name map
#else
    (void)registry;
    return 0;
#endif
  }

  static std::size_t probe_trace(const TraceCollector& collector) {
#if defined(VOLUT_TSA_PROBE_TRACE_EVENTS)
    return collector.events_.size();  // unlocked read of the event buffer
#else
    (void)collector;
    return 0;
#endif
  }

  /// The legal shape, compiled in every mode: a guarded read inside a
  /// MutexLock scope. This is the positive control that keeps the probes
  /// honest — if the vocabulary itself broke, this would stop compiling.
  static std::size_t locked_joined_read(ThreadPool& pool) {
    MutexLock lk(pool.mu_);
    return pool.joined_;
  }
};

}  // namespace volut

int main() { return 0; }
