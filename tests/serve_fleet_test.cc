// Integration sweep for the fleet simulator: a 64-session, 2-replica run
// with single-flight encode queues, per-replica cache shards, the admission
// waiting room and measured SR enabled, checked for bit-identical results
// across 1/2/4/8 pool workers (the acceptance bar for the serve/ subsystem).
// Labeled "integration" in ctest.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/serve/fleet.h"

namespace volut {
namespace {

FleetConfig sweep_config() {
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(/*n=*/64, /*arrival_spacing=*/0.25,
                                   /*max_chunks=*/15, /*video_scale=*/0.01);
  fleet.replica_uplinks = {BandwidthTrace::lte(120.0, 25.0, 600.0, 21),
                           BandwidthTrace::lte(120.0, 25.0, 600.0, 22)};
  fleet.rtt_seconds = 0.020;
  // Tight enough that late arrivals queue in the waiting room; the infinite
  // patience means everyone is eventually admitted, so the QoE rollups still
  // cover all 64 sessions.
  fleet.max_sessions_per_replica = 4;
  fleet.max_wait_seconds = std::numeric_limits<double>::infinity();
  fleet.cache_budget_bytes = 64u << 20;
  fleet.shard_cache_per_replica = true;
  fleet.encode_seconds_full = 0.040;
  fleet.measure_sr_stride = 5;
  return fleet;
}

/// sweep_config() with crashes, a blackout, a brownout, a degradation window
/// and stochastic encode failures all armed.
FleetConfig armed_sweep_config() {
  FleetConfig fleet = sweep_config();
  fleet.faults.seed = 0xBADF00Du;
  fleet.faults.crashes = {{0, 3.0, 2.0}, {1, 9.0, 1.0}};
  fleet.faults.blackouts = {{1, 5.0, 1.5}};
  fleet.faults.brownouts = {{0, 12.0, 4.0}};
  fleet.faults.degradations = {{1, 14.0, 6.0}};
  fleet.faults.encode_failure_rate = 0.15;
  fleet.recovery.encode_backoff_base_seconds = 0.1;
  fleet.recovery.degrade_density_when_degraded = true;
  return fleet;
}

TEST(FleetSweepTest, SixtyFourSessionsTwoReplicas) {
  const FleetConfig fleet = sweep_config();
  const FleetResult result = run_fleet(fleet);

  EXPECT_EQ(result.admitted, 64u);
  EXPECT_EQ(result.rejected, 0u);
  EXPECT_EQ(result.qoe.count, 64u);
  // Rollups are populated and ordered.
  EXPECT_LE(result.qoe.p50, result.qoe.p99 + 1e-9);
  EXPECT_LE(result.normalized_qoe.p95, 100.0 + 1e-9);
  EXPECT_GE(result.stall_rate, 0.0);
  EXPECT_LE(result.stall_rate, 1.0);
  EXPECT_GT(result.total_bytes, 0.0);
  EXPECT_GT(result.played_seconds, 0.0);
  // Shared content across viewers must produce real cache reuse.
  EXPECT_GT(result.cache.hits, 0u);
  EXPECT_GT(result.cache.hit_rate(), 0.1);
  // The tight session cap pushed arrivals through the waiting room.
  EXPECT_GT(result.queue_depth_peak, 0u);
  EXPECT_GT(result.wait_time.max, 0.0);
  EXPECT_EQ(result.wait_time.count, 64u);
  EXPECT_EQ(result.timed_out, 0u);
  // Per-replica cache shards: one per replica, aggregating to the totals.
  ASSERT_EQ(result.cache_shards.size(), 2u);
  EXPECT_EQ(result.cache_shards[0].hits + result.cache_shards[1].hits,
            result.cache.hits);
  EXPECT_EQ(result.cache_shards[0].misses + result.cache_shards[1].misses,
            result.cache.misses);
  // Single-flight bookkeeping: every miss either started an encode or
  // coalesced onto one, and every started encode completed.
  EXPECT_EQ(result.encode_queue.encode_starts +
                result.encode_queue.coalesced_joins,
            result.cache.misses);
  EXPECT_EQ(result.encode_queue.completions,
            result.encode_queue.encode_starts);
  // Both replicas carried sessions and bytes.
  EXPECT_GT(result.replicas[0].sessions_assigned, 0u);
  EXPECT_GT(result.replicas[1].sessions_assigned, 0u);
  EXPECT_GT(result.replicas[0].bytes_completed, 0.0);
  EXPECT_GT(result.replicas[1].bytes_completed, 0.0);
  EXPECT_FALSE(result.sr_samples.empty());
}

TEST(FleetSweepTest, ZeroMaxWaitReproducesRejectAtCapAdmissionCounts) {
  // Admission counts pinned against the pre-waiting-room fleet (verified by
  // temporarily reverting this PR): encodes are free, so the timeline is
  // identical and max_wait_seconds = 0 must reproduce reject-at-cap exactly.
  FleetConfig fleet;
  fleet.clients = make_mixed_fleet(/*n=*/24, /*arrival_spacing=*/0.25,
                                   /*max_chunks=*/8, /*video_scale=*/0.01);
  fleet.replica_uplinks = {BandwidthTrace::stable(15.0, 600.0),
                           BandwidthTrace::stable(15.0, 600.0)};
  fleet.rtt_seconds = 0.020;
  fleet.max_sessions_per_replica = 6;
  fleet.encode_seconds_full = 0.0;
  ASSERT_EQ(fleet.max_wait_seconds, 0.0);  // the default: reject at cap
  const FleetResult rejecting = run_fleet(fleet);
  EXPECT_EQ(rejecting.admitted, 14u);
  EXPECT_EQ(rejecting.rejected, 10u);
  EXPECT_EQ(rejecting.timed_out, 0u);
  EXPECT_EQ(rejecting.queue_depth_peak, 0u);
  EXPECT_EQ(rejecting.replicas[0].sessions_assigned, 7u);
  EXPECT_EQ(rejecting.replicas[1].sessions_assigned, 7u);

  // The same overload with an unbounded waiting room loses nobody.
  FleetConfig queued = fleet;
  queued.max_wait_seconds = std::numeric_limits<double>::infinity();
  const FleetResult waiting = run_fleet(queued);
  EXPECT_EQ(waiting.admitted, 24u);
  EXPECT_EQ(waiting.rejected, 0u);
  EXPECT_GT(waiting.queue_depth_peak, 0u);
  EXPECT_TRUE(waiting.completed);
}

TEST(FleetSweepTest, BitIdenticalAcrossPoolWorkerCounts) {
  const FleetConfig fleet = sweep_config();
  ThreadPool pool1(1);
  const FleetResult reference = run_fleet(fleet, &pool1);
  for (std::size_t workers : {2u, 4u, 8u}) {
    ThreadPool pool(workers);
    const FleetResult run = run_fleet(fleet, &pool);
    ASSERT_EQ(run.sessions.size(), reference.sessions.size());
    for (std::size_t i = 0; i < run.sessions.size(); ++i) {
      EXPECT_DOUBLE_EQ(run.sessions[i].qoe, reference.sessions[i].qoe)
          << "session " << i << " @ " << workers << " workers";
      EXPECT_DOUBLE_EQ(run.sessions[i].total_bytes,
                       reference.sessions[i].total_bytes);
      EXPECT_DOUBLE_EQ(run.sessions[i].stall_seconds,
                       reference.sessions[i].stall_seconds);
    }
    EXPECT_DOUBLE_EQ(run.qoe.p50, reference.qoe.p50);
    EXPECT_DOUBLE_EQ(run.qoe.p95, reference.qoe.p95);
    EXPECT_DOUBLE_EQ(run.qoe.p99, reference.qoe.p99);
    EXPECT_DOUBLE_EQ(run.stall_rate, reference.stall_rate);
    EXPECT_EQ(run.cache.hits, reference.cache.hits);
    EXPECT_EQ(run.cache.evictions, reference.cache.evictions);
    EXPECT_EQ(run.encode_queue.coalesced_joins,
              reference.encode_queue.coalesced_joins);
    ASSERT_EQ(run.wait_seconds.size(), reference.wait_seconds.size());
    for (std::size_t i = 0; i < run.wait_seconds.size(); ++i) {
      EXPECT_DOUBLE_EQ(run.wait_seconds[i], reference.wait_seconds[i]);
    }
    EXPECT_EQ(run.queue_depth_peak, reference.queue_depth_peak);
    ASSERT_EQ(run.sr_samples.size(), reference.sr_samples.size());
    for (std::size_t i = 0; i < run.sr_samples.size(); ++i) {
      EXPECT_DOUBLE_EQ(run.sr_samples[i].chamfer,
                       reference.sr_samples[i].chamfer)
          << "sample " << i << " @ " << workers << " workers";
    }
    // The sim-time event timeline (per-type totals AND retained events) is
    // part of the bit-identity contract: the timeline is single-threaded,
    // so worker count must not change a single record.
    EXPECT_EQ(run.timeline_events, reference.timeline_events);
    EXPECT_TRUE(run.events == reference.events)
        << "event timeline diverged @ " << workers << " workers";
  }
}

TEST(FleetFaultSweepTest, ArmedScheduleBitIdenticalAcrossPoolWorkerCounts) {
  // The fault acceptance bar: with crashes, blackouts, a degradation window
  // and stochastic encode failures all armed, the run — recovery cascades
  // included — stays bit-identical for any worker count. Faults live on the
  // single-threaded timeline; the pool still only fans out SR measurement.
  const FleetConfig fleet = armed_sweep_config();

  ThreadPool pool1(1);
  const FleetResult reference = run_fleet(fleet, &pool1);
  EXPECT_TRUE(reference.completed);
  EXPECT_GT(reference.failovers, 0u);
  EXPECT_GT(reference.encode_queue.retries, 0u);
  for (std::size_t workers : {2u, 4u, 8u}) {
    ThreadPool pool(workers);
    const FleetResult run = run_fleet(fleet, &pool);
    EXPECT_EQ(run.failovers, reference.failovers);
    EXPECT_EQ(run.failed_sessions, reference.failed_sessions);
    EXPECT_EQ(run.downloads_aborted, reference.downloads_aborted);
    EXPECT_DOUBLE_EQ(run.bytes_discarded, reference.bytes_discarded);
    EXPECT_EQ(run.degraded_chunks, reference.degraded_chunks);
    EXPECT_DOUBLE_EQ(run.failover_time.p95, reference.failover_time.p95);
    EXPECT_EQ(run.encode_queue.failures, reference.encode_queue.failures);
    EXPECT_EQ(run.encode_queue.retries, reference.encode_queue.retries);
    EXPECT_EQ(run.encode_queue.exhausted, reference.encode_queue.exhausted);
    ASSERT_EQ(run.sessions.size(), reference.sessions.size());
    for (std::size_t i = 0; i < run.sessions.size(); ++i) {
      EXPECT_DOUBLE_EQ(run.sessions[i].qoe, reference.sessions[i].qoe)
          << "session " << i << " @ " << workers << " workers";
      EXPECT_DOUBLE_EQ(run.sessions[i].stall_seconds,
                       reference.sessions[i].stall_seconds);
    }
    for (std::size_t r = 0; r < run.replicas.size(); ++r) {
      EXPECT_EQ(run.replicas[r].crashes, reference.replicas[r].crashes);
      EXPECT_DOUBLE_EQ(run.replicas[r].down_seconds,
                       reference.replicas[r].down_seconds);
      EXPECT_DOUBLE_EQ(run.replicas[r].degraded_seconds,
                       reference.replicas[r].degraded_seconds);
    }
    EXPECT_EQ(run.timeline_events, reference.timeline_events);
    EXPECT_TRUE(run.events == reference.events)
        << "fault timeline diverged @ " << workers << " workers";
  }
}

#if VOLUT_OBS_ENABLED
/// Every serve counter run_fleet publishes, paired with the result field it
/// is published from.
std::vector<std::pair<std::string, std::uint64_t>> published_counters(
    const FleetResult& result) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (std::size_t s = 0; s < result.cache_shards.size(); ++s) {
    const std::string prefix = "serve/cache/shard" + std::to_string(s) + "/";
    const EncodeCacheStats& shard = result.cache_shards[s];
    out.emplace_back(prefix + "hits", shard.hits);
    out.emplace_back(prefix + "misses", shard.misses);
    out.emplace_back(prefix + "evictions", shard.evictions);
    out.emplace_back(prefix + "insertions", shard.insertions);
    out.emplace_back(prefix + "oversized_rejects", shard.oversized_rejects);
  }
  const EncodeQueueStats& encode = result.encode_queue;
  out.emplace_back("serve/encode/starts", encode.encode_starts);
  out.emplace_back("serve/encode/coalesced_joins", encode.coalesced_joins);
  out.emplace_back("serve/encode/completions", encode.completions);
  out.emplace_back("serve/encode/failures", encode.failures);
  out.emplace_back("serve/encode/retries", encode.retries);
  out.emplace_back("serve/encode/give_ups", encode.exhausted);
  out.emplace_back("serve/encode/abandoned", encode.abandoned);
  std::uint64_t breaker_trips = 0;
  for (const ReplicaStats& replica : result.replicas) {
    breaker_trips += replica.breaker_trips;
  }
  out.emplace_back("serve/fleet/failovers", result.failovers);
  out.emplace_back("serve/fleet/session_failures", result.failed_sessions);
  out.emplace_back("serve/fleet/downloads_aborted", result.downloads_aborted);
  out.emplace_back("serve/fleet/density_downshifts", result.degraded_chunks);
  out.emplace_back("serve/fleet/breaker_trips", breaker_trips);
  return out;
}

std::uint64_t histogram_total(std::string_view name) {
  // Bounds are ignored for an already-registered histogram.
  return MetricsRegistry::global().histogram(name, {}).total();
}

TEST(FleetSweepTest, RegistryCountersAgreeWithLegacyAccessors) {
  // run_fleet publishes each run's struct totals to the registry at its
  // end; after one run from a reset registry the two views must be equal,
  // on the fault-free path and with every fault class armed.
  struct Case {
    const char* name;
    FleetConfig fleet;
  };
  const Case cases[] = {{"fault-free", sweep_config()},
                        {"armed", armed_sweep_config()}};
  MetricsRegistry& reg = MetricsRegistry::global();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    reg.reset();
    const FleetResult result = run_fleet(c.fleet);

    EXPECT_EQ(reg.counter_value("serve/encode/starts"),
              result.encode_queue.encode_starts);
    EXPECT_EQ(reg.counter_value("serve/encode/coalesced_joins"),
              result.encode_queue.coalesced_joins);
    EXPECT_EQ(reg.counter_value("serve/encode/completions"),
              result.encode_queue.completions);
    ASSERT_EQ(result.cache_shards.size(), 2u);
    for (std::size_t s = 0; s < result.cache_shards.size(); ++s) {
      const std::string prefix =
          "serve/cache/shard" + std::to_string(s) + "/";
      EXPECT_EQ(reg.counter_value(prefix + "hits"),
                result.cache_shards[s].hits)
          << prefix;
      EXPECT_EQ(reg.counter_value(prefix + "misses"),
                result.cache_shards[s].misses)
          << prefix;
      EXPECT_EQ(reg.counter_value(prefix + "evictions"),
                result.cache_shards[s].evictions)
          << prefix;
    }
    for (const auto& [name, value] : published_counters(result)) {
      EXPECT_EQ(reg.counter_value(name), value) << name;
    }
    // The net/* flow totals are the replica uplinks' own counts, summed.
    std::uint64_t started = 0, completed = 0, aborted = 0;
    double bytes = 0.0;
    for (const ReplicaStats& replica : result.replicas) {
      started += replica.flows_started;
      completed += replica.flows_completed;
      aborted += replica.flows_aborted;
      bytes += replica.bytes_completed;
    }
    EXPECT_EQ(reg.counter_value("net/flows_started"), started);
    EXPECT_EQ(reg.counter_value("net/flows_completed"), completed);
    EXPECT_EQ(reg.counter_value("net/flows_aborted"), aborted);
    EXPECT_EQ(reg.counter_value("net/bytes_completed"),
              std::uint64_t(std::llround(bytes)));
    EXPECT_GT(completed, 0u);
    EXPECT_EQ(started, completed + aborted);  // no flow outlives the run
    EXPECT_EQ(aborted, result.downloads_aborted);
    EXPECT_EQ(reg.gauge_value("serve/encode/peak_in_flight"),
              double(result.encode_queue.peak_in_flight));
    EXPECT_EQ(histogram_total("serve/fleet/failover_seconds"),
              result.failovers);
    EXPECT_EQ(histogram_total("serve/encode/backoff_seconds"),
              result.encode_queue.retries);
    // The timeline saw the same encode lifecycle the registry counted.
    EXPECT_EQ(result.events.type_count(FleetEventType::kEncodeStart),
              result.encode_queue.encode_starts);
    EXPECT_EQ(result.events.type_count(FleetEventType::kEncodeComplete),
              result.encode_queue.completions);
  }
}

TEST(FleetSweepTest, RegistryAccumulatesAcrossRuns) {
  // Publishing adds each run's totals; it never overwrites what an earlier
  // run published, so two back-to-back runs read exactly twice one run.
  const FleetConfig fleet = armed_sweep_config();
  MetricsRegistry& reg = MetricsRegistry::global();
  reg.reset();
  const FleetResult once = run_fleet(fleet);
  const auto one_run = reg.counters_with_prefix("serve/");
  ASSERT_FALSE(one_run.empty());
  (void)run_fleet(fleet);
  const auto two_runs = reg.counters_with_prefix("serve/");
  ASSERT_EQ(two_runs.size(), one_run.size());
  for (std::size_t k = 0; k < one_run.size(); ++k) {
    EXPECT_EQ(two_runs[k].first, one_run[k].first);
    EXPECT_EQ(two_runs[k].second, 2 * one_run[k].second) << one_run[k].first;
  }
  EXPECT_GT(once.failovers, 0u);
  EXPECT_GT(once.encode_queue.retries, 0u);
  EXPECT_EQ(histogram_total("serve/fleet/failover_seconds"),
            2 * once.failovers);
  EXPECT_EQ(histogram_total("serve/encode/backoff_seconds"),
            2 * once.encode_queue.retries);
}
#endif  // VOLUT_OBS_ENABLED

}  // namespace
}  // namespace volut
