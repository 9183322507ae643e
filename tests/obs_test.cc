// Unit tests for the observability layer (src/obs/): metrics registry
// exactness under pool hammering, histogram edge pinning, trace JSON shape,
// and fleet EventLog semantics including bit-identity across worker counts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/platform/thread_pool.h"
#include "src/serve/fleet.h"

namespace volut {
namespace {

constexpr double kInfD = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(MetricsRegistryTest, CounterExactUnderPoolHammering) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& counter = reg.counter("obs_test/hammer");
  counter.reset();
  ThreadPool pool(8);
  constexpr std::size_t kN = 200'000;
  pool.parallel_chunks(kN, 64,
                       [&](std::size_t, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           counter.add();
                         }
                       });
#if VOLUT_OBS_ENABLED
  EXPECT_EQ(counter.value(), kN);
#else
  EXPECT_EQ(counter.value(), 0u);
#endif
}

TEST(MetricsRegistryTest, HandlesAreStableAcrossReset) {
  MetricsRegistry& reg = MetricsRegistry::global();
  Counter& before = reg.counter("obs_test/stable");
  before.add(3);
  reg.reset();
  Counter& after = reg.counter("obs_test/stable");
  EXPECT_EQ(&before, &after);
  EXPECT_EQ(after.value(), 0u);  // reset zeroes but keeps the registration
  after.add(2);
#if VOLUT_OBS_ENABLED
  EXPECT_EQ(reg.counter_value("obs_test/stable"), 2u);
#endif
}

TEST(MetricsRegistryTest, GaugeSetMaxRatchetsAndIgnoresNaN) {
  Gauge gauge;
  gauge.set_max(3.0);
  gauge.set_max(1.0);  // lower: ignored
  gauge.set_max(kNaN);
#if VOLUT_OBS_ENABLED
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  gauge.set_max(7.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.5);
#else
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
#endif
}

TEST(HistogramTest, BucketEdgesPinnedLikeDensityBucket) {
  Histogram h({1.0, 2.0, 4.0});
  EXPECT_EQ(h.bucket_count(), 4u);
  // Bounds are inclusive upper edges.
  EXPECT_EQ(h.bucket_index(0.5), 0u);
  EXPECT_EQ(h.bucket_index(1.0), 0u);
  EXPECT_EQ(h.bucket_index(1.0000001), 1u);
  EXPECT_EQ(h.bucket_index(2.0), 1u);
  EXPECT_EQ(h.bucket_index(4.0), 2u);
  EXPECT_EQ(h.bucket_index(4.1), 3u);  // overflow bucket
  // Non-finite pinning, mirroring serve's density_bucket discipline.
  EXPECT_EQ(h.bucket_index(kNaN), 0u);
  EXPECT_EQ(h.bucket_index(-kInfD), 0u);
  EXPECT_EQ(h.bucket_index(kInfD), 3u);
}

TEST(HistogramTest, ObserveCountsIntoBuckets) {
  MetricsRegistry& reg = MetricsRegistry::global();
  const std::vector<double> bounds = {10.0, 100.0};
  Histogram& h = reg.histogram("obs_test/hist", bounds);
  h.reset();
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);
  h.observe(kNaN);
#if VOLUT_OBS_ENABLED
  EXPECT_EQ(h.bucket_value(0), 2u);  // 5.0 and the pinned NaN
  EXPECT_EQ(h.bucket_value(1), 1u);
  EXPECT_EQ(h.bucket_value(2), 1u);
  EXPECT_EQ(h.total(), 4u);
#else
  EXPECT_EQ(h.total(), 0u);
#endif
  // First registration wins the bucket layout.
  const std::vector<double> other = {1.0};
  EXPECT_EQ(&reg.histogram("obs_test/hist", other), &h);
  EXPECT_EQ(h.bounds().size(), 2u);
}

TEST(MetricsRegistryTest, CountersWithPrefixSortedAndFiltered) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("obs_test/prefix/b").add(2);
  reg.counter("obs_test/prefix/a").add(1);
  reg.counter("obs_test/other").add(9);
  const auto rows = reg.counters_with_prefix("obs_test/prefix/");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].first, "obs_test/prefix/a");
  EXPECT_EQ(rows[1].first, "obs_test/prefix/b");
#if VOLUT_OBS_ENABLED
  EXPECT_EQ(rows[0].second, 1u);
  EXPECT_EQ(rows[1].second, 2u);
#endif
}

TEST(MetricsRegistryTest, ExpositionShapes) {
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.counter("obs_test/json").add(1);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"schema\": \"volut-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"obs_test/json\""), std::string::npos);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE volut_obs_test_json counter"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(TraceTest, SpansRecordChromeTraceEvents) {
  TraceCollector& collector = TraceCollector::global();
  collector.start();
  {
    TraceSpan outer("obs_test/outer");
    {
      TraceSpan inner("obs_test/inner");
    }
    ThreadPool pool(4);
    pool.parallel_chunks(8, 1, [](std::size_t, std::size_t, std::size_t) {
      TraceSpan span("obs_test/pool");
    });
  }
  collector.stop();
#if VOLUT_OBS_ENABLED
  EXPECT_GE(collector.event_count(), 3u);
#else
  EXPECT_EQ(collector.event_count(), 0u);
#endif
  const std::string json = collector.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
#if VOLUT_OBS_ENABLED
  EXPECT_NE(json.find("\"obs_test/inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
#endif
}

TEST(TraceTest, SpanMeasuresWithoutCollection) {
  TraceCollector::global().stop();
  TraceSpan span("obs_test/uncollected");
  const double first = span.stop_ms();
  EXPECT_GE(first, 0.0);
  EXPECT_DOUBLE_EQ(span.stop_ms(), first);  // idempotent
  EXPECT_DOUBLE_EQ(span.elapsed_ms(), first);
}

TEST(TraceTest, StartClearsPreviousCollection) {
  TraceCollector& collector = TraceCollector::global();
  collector.start();
  { TraceSpan span("obs_test/first"); }
  collector.start();  // re-arm: previous events dropped
  collector.stop();
  EXPECT_EQ(collector.event_count(), 0u);
}

// Regression for the epoch data race the thread-safety annotation pass
// surfaced: now_us() read the collection epoch unguarded while start()
// rewrote it under the collector mutex, so a span opening concurrently with
// a restart raced on the anchor (UB; visible to the TSan CI leg). The epoch
// is now an atomic tick count — this test hammers exactly that interleaving
// (pool threads opening/closing spans while the main thread re-anchors) and
// must stay clean under -DVOLUT_SANITIZE=thread.
TEST(TraceTest, TraceRestartWhileSpansActive) {
  TraceCollector& collector = TraceCollector::global();
  ThreadPool pool(4);
  collector.start();
  for (int round = 0; round < 50; ++round) {
    pool.parallel_chunks(16, 1, [](std::size_t, std::size_t, std::size_t) {
      TraceSpan span("obs_test/race");
    });
    collector.start();  // re-anchor while spans may be mid-flight
  }
  collector.stop();
  // Timestamps of surviving events are measured against a coherent anchor:
  // every span recorded after the final re-anchor has a sane microsecond
  // offset (the race used to make these garbage, not just torn).
  const std::string json = collector.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // No negative start timestamps: every surviving event was stamped against
  // a coherent (not torn/stale-mixed) anchor.
  EXPECT_EQ(json.find("\"ts\": -"), std::string::npos);
}

// ---------------------------------------------------------------------------
// EventLog
// ---------------------------------------------------------------------------

TEST(EventLogTest, RecordsInOrderWithTypeCounts) {
  EventLog log(/*capacity=*/8);
  log.record(0.5, FleetEventType::kAdmit, 0, 1);
  log.record(1.0, FleetEventType::kCacheMiss, 0, 1);
  log.record(1.0, FleetEventType::kEncodeStart, 0, 1, 0.040);
  EXPECT_EQ(log.recorded(), 3u);
  EXPECT_EQ(log.dropped(), 0u);
  const std::vector<FleetEvent> events = log.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, FleetEventType::kAdmit);
  EXPECT_DOUBLE_EQ(events[2].value, 0.040);
  EXPECT_EQ(log.type_count(FleetEventType::kAdmit), 1u);
  EXPECT_EQ(log.type_count(FleetEventType::kCacheMiss), 1u);
  EXPECT_EQ(log.type_count(FleetEventType::kReject), 0u);
}

TEST(EventLogTest, RingDropsOldestButKeepsTotals) {
  EventLog log(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    log.record(double(i), FleetEventType::kChunkRequest, 7, 0, double(i));
  }
  EXPECT_EQ(log.recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const std::vector<FleetEvent> events = log.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest retained first: 6, 7, 8, 9.
  EXPECT_DOUBLE_EQ(events.front().time, 6.0);
  EXPECT_DOUBLE_EQ(events.back().time, 9.0);
  // Per-type totals still cover every recorded event.
  EXPECT_EQ(log.type_count(FleetEventType::kChunkRequest), 10u);
}

TEST(EventLogTest, ZeroCapacityCountsWithoutRetention) {
  EventLog log(/*capacity=*/0);
  log.record(1.0, FleetEventType::kAdmit, 0);
  EXPECT_EQ(log.recorded(), 1u);
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(log.type_count(FleetEventType::kAdmit), 1u);
}

TEST(EventLogTest, SessionJsonFiltersAndNamesAreStable) {
  EventLog log(/*capacity=*/16);
  log.record(0.0, FleetEventType::kAdmit, 1, 0);
  log.record(0.5, FleetEventType::kAdmit, 2, 1);
  log.record(1.0, FleetEventType::kRebufferStart, 1, 0, 0.25);
  const std::string all = log.to_json();
  EXPECT_NE(all.find("\"schema\": \"volut-fleet-events-v1\""),
            std::string::npos);
  EXPECT_NE(all.find("\"rebuffer_start\""), std::string::npos);
  const std::string s1 = log.session_json(1);
  EXPECT_NE(s1.find("\"rebuffer_start\""), std::string::npos);
  EXPECT_EQ(s1.find("\"session\": 2"), std::string::npos);
  const std::string s9 = log.session_json(9);
  EXPECT_EQ(s9.find("\"admit\""), std::string::npos);
}

TEST(EventLogTest, EqualityComparesCountsAndRetainedEvents) {
  EventLog a(4), b(4);
  a.record(1.0, FleetEventType::kAdmit, 0);
  b.record(1.0, FleetEventType::kAdmit, 0);
  EXPECT_TRUE(a == b);
  b.record(2.0, FleetEventType::kReject, 1);
  EXPECT_FALSE(a == b);
}

// ---------------------------------------------------------------------------
// Fleet timeline determinism
// ---------------------------------------------------------------------------

FleetConfig small_fleet() {
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(/*n=*/12, /*arrival_spacing=*/0.25,
                                   /*max_chunks=*/6, /*video_scale=*/0.01);
  fleet.replica_uplinks = {BandwidthTrace::lte(120.0, 25.0, 600.0, 31),
                           BandwidthTrace::lte(120.0, 25.0, 600.0, 32)};
  fleet.rtt_seconds = 0.020;
  fleet.max_sessions_per_replica = 3;
  fleet.max_wait_seconds = std::numeric_limits<double>::infinity();
  fleet.cache_budget_bytes = 8u << 20;
  fleet.shard_cache_per_replica = true;
  fleet.encode_seconds_full = 0.040;
  return fleet;
}

TEST(EventLogTest, FleetTimelineBitIdenticalAcrossWorkerCounts) {
  const FleetConfig fleet = small_fleet();
  MetricsRegistry& reg = MetricsRegistry::global();

  reg.reset();
  ThreadPool pool1(1);
  const FleetResult reference = run_fleet(fleet, &pool1);
  const auto ref_counters = reg.counters_with_prefix("serve/");
  ASSERT_GT(reference.timeline_events, 0u);
  EXPECT_EQ(reference.timeline_events, reference.events.recorded());
  EXPECT_GT(reference.events.type_count(FleetEventType::kAdmit), 0u);
  EXPECT_GT(reference.events.type_count(FleetEventType::kDownloadFinish), 0u);

  for (std::size_t workers : {2u, 4u, 8u}) {
    reg.reset();
    ThreadPool pool(workers);
    const FleetResult run = run_fleet(fleet, &pool);
    EXPECT_TRUE(run.events == reference.events)
        << "timeline diverged @ " << workers << " workers";
    EXPECT_EQ(run.timeline_events, reference.timeline_events);
    EXPECT_EQ(reg.counters_with_prefix("serve/"), ref_counters)
        << "registry counters diverged @ " << workers << " workers";
  }
}

/// small_fleet() with every fault the rollups count: a crash, a blackout,
/// encode failures with retries, a breaker trip and a density downshift.
FleetConfig faulty_fleet() {
  FleetConfig fleet = small_fleet();
  fleet.faults.crashes = {{/*replica=*/0, /*start=*/1.0, /*seconds=*/0.5}};
  fleet.faults.blackouts = {{/*replica=*/1, /*start=*/1.2, /*seconds=*/0.5}};
  fleet.faults.degradations = {{/*replica=*/1, /*start=*/0.8, /*seconds=*/3.0}};
  fleet.faults.encode_failure_rate = 0.3;
  fleet.faults.seed = 7;
  fleet.recovery.encode_max_attempts = 12;
  fleet.recovery.encode_backoff_base_seconds = 0.05;
  fleet.recovery.encode_backoff_cap_seconds = 0.5;
  fleet.recovery.breaker_failure_threshold = 2;
  fleet.recovery.breaker_reset_seconds = 1.0;
  fleet.recovery.degrade_density_when_degraded = true;
  return fleet;
}

class FleetTimelineTest : public ::testing::TestWithParam<bool> {};

// Every FleetResult count that one event type also counts agrees with the
// log, with and without faults. run_fleet reads admitted, rejected,
// failovers, failed_sessions, downloads_aborted, degraded_chunks and
// timeline_events from the log, so those lines only pin that derivation;
// serve_fleet_diff_test checks the counts themselves against the reference
// loop. The cache and encode-queue counters and the per-replica crash and
// breaker-trip sums have writers of their own, and are checked here.
TEST_P(FleetTimelineTest, MatchesRollups) {
  const bool faults_armed = GetParam();
  const FleetResult result =
      run_fleet(faults_armed ? faulty_fleet() : small_fleet());
  const EventLog& events = result.events;
  const auto count = [&events](FleetEventType type) {
    return events.type_count(type);
  };
  using T = FleetEventType;
  EXPECT_EQ(count(T::kAdmit), result.admitted);
  EXPECT_EQ(count(T::kReject) + result.timed_out, result.rejected);
  EXPECT_EQ(count(T::kFailoverComplete), result.failovers);
  EXPECT_EQ(count(T::kSessionFail), result.failed_sessions);
  EXPECT_EQ(count(T::kDownloadAbort), result.downloads_aborted);
  EXPECT_EQ(count(T::kDensityDownshift), result.degraded_chunks);
  EXPECT_EQ(events.recorded(), result.timeline_events);
  EXPECT_EQ(count(T::kCacheHit), result.cache.hits);
  EXPECT_EQ(count(T::kCacheMiss), result.cache.misses);
  const EncodeQueueStats& encode = result.encode_queue;
  EXPECT_EQ(count(T::kEncodeComplete), encode.completions);
  EXPECT_EQ(count(T::kEncodeFail), encode.failures);
  EXPECT_EQ(count(T::kEncodeRetry), encode.retries);
  EXPECT_EQ(count(T::kEncodeGiveUp), encode.exhausted);
  EXPECT_EQ(count(T::kEncodeAbandon), encode.abandoned);
  EXPECT_EQ(count(T::kEncodeCoalesce), encode.coalesced_joins);
  std::size_t crashes = 0, breaker_trips = 0;
  for (const ReplicaStats& replica : result.replicas) {
    crashes += replica.crashes;
    breaker_trips += replica.breaker_trips;
  }
  EXPECT_EQ(count(T::kReplicaDown), crashes);
  EXPECT_EQ(count(T::kBreakerTrip), breaker_trips);
  // Every admitted session ended and every download that started finished
  // or was aborted (the run completed).
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(count(T::kSessionDone) + count(T::kSessionFail), result.admitted);
  EXPECT_EQ(count(T::kDownloadStart),
            count(T::kDownloadFinish) + count(T::kDownloadAbort));
  // The faults above all fired, so none of the counts is vacuous.
  for (const T type : {T::kReplicaDown, T::kUplinkDegrade, T::kEncodeFail,
                       T::kEncodeRetry, T::kBreakerTrip,
                       T::kDensityDownshift}) {
    if (faults_armed) {
      EXPECT_GT(count(type), 0u) << fleet_event_name(type);
    } else {
      EXPECT_EQ(count(type), 0u) << fleet_event_name(type);
    }
  }
  // Without faults nothing fails over, fails or aborts, so the two sums
  // above are exactly kSessionDone == admitted and
  // kDownloadStart == kDownloadFinish.
  if (!faults_armed) {
    for (const T type :
         {T::kFailoverComplete, T::kSessionFail, T::kDownloadAbort}) {
      EXPECT_EQ(count(type), 0u) << fleet_event_name(type);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Fleets, FleetTimelineTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "FaultArmed" : "FaultFree";
                         });

}  // namespace
}  // namespace volut
