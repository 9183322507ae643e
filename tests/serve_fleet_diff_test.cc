// Differential test of the fleet event loop: run_fleet (wakeup index,
// per-phase due lists) against run_fleet_reference (tests/fleet_reference.cc,
// the loop that rescans every client in every phase) on CounterRng-seeded
// random configs. Every FleetResult field, and the exported EventLog bytes,
// must match bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/rng.h"
#include "src/data/motion_trace.h"
#include "src/serve/fleet.h"
#include "tests/fleet_reference.h"

namespace volut {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::uint64_t kConfigs = 240;

/// One line per scalar; doubles as exact bit patterns, so any divergence in
/// the last ulp shows up as a differing line.
class Dump {
 public:
  void add(const char* name, double v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s %.17g %016llx\n", name, v,
                  (unsigned long long)std::bit_cast<std::uint64_t>(v));
    text_ += buf;
  }
  void add(const char* name, std::uint64_t v) {
    text_ += std::string(name) + " " + std::to_string(v) + "\n";
  }
  void add(const char* name, const Summary& s) {
    const std::string p(name);
    add((p + ".count").c_str(), std::uint64_t(s.count));
    add((p + ".mean").c_str(), s.mean);
    add((p + ".stddev").c_str(), s.stddev);
    add((p + ".min").c_str(), s.min);
    add((p + ".max").c_str(), s.max);
    add((p + ".p50").c_str(), s.p50);
    add((p + ".p90").c_str(), s.p90);
    add((p + ".p95").c_str(), s.p95);
    add((p + ".p99").c_str(), s.p99);
  }
  void add(const char* name, const EncodeCacheStats& s) {
    const std::string p(name);
    add((p + ".hits").c_str(), s.hits);
    add((p + ".misses").c_str(), s.misses);
    add((p + ".evictions").c_str(), s.evictions);
    add((p + ".insertions").c_str(), s.insertions);
    add((p + ".oversized_rejects").c_str(), s.oversized_rejects);
  }
  void section(const std::string& title) { text_ += "-- " + title + "\n"; }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

/// Every FleetResult field except sr_samples (the reference measures no SR).
std::string describe(const FleetResult& r) {
  Dump d;
  for (std::size_t i = 0; i < r.sessions.size(); ++i) {
    const SessionResult& s = r.sessions[i];
    d.section("session " + std::to_string(i) + " " + s.system);
    for (const ChunkRecord& c : s.chunks) {
      d.add("chunk.index", std::uint64_t(c.index));
      d.add("chunk.density_ratio", c.density_ratio);
      d.add("chunk.bytes", c.bytes);
      d.add("chunk.download_seconds", c.download_seconds);
      d.add("chunk.sr_seconds", c.sr_seconds);
      d.add("chunk.stall_seconds", c.stall_seconds);
      d.add("chunk.quality", c.quality);
      d.add("chunk.qoe", c.qoe);
      d.add("chunk.buffer_after", c.buffer_after);
    }
    d.add("total_bytes", s.total_bytes);
    d.add("stall_seconds", s.stall_seconds);
    d.add("qoe", s.qoe);
    d.add("mean_quality", s.mean_quality);
    d.add("mean_density", s.mean_density);
    d.add("quality_switches", std::uint64_t(s.quality_switches));
    d.add("data_usage_fraction", s.data_usage_fraction);
    d.add("replica_of", std::uint64_t(r.replica_of[i]));
    d.add("wait_seconds", r.wait_seconds[i]);
  }
  d.section("fleet");
  d.add("admitted", std::uint64_t(r.admitted));
  d.add("rejected", std::uint64_t(r.rejected));
  d.add("timed_out", std::uint64_t(r.timed_out));
  d.add("wait_time", r.wait_time);
  d.add("queue_depth_peak", std::uint64_t(r.queue_depth_peak));
  d.add("completed", std::uint64_t(r.completed));
  d.add("unfinished_sessions", std::uint64_t(r.unfinished_sessions));
  d.add("failovers", std::uint64_t(r.failovers));
  d.add("failover_time", r.failover_time);
  d.add("failed_sessions", std::uint64_t(r.failed_sessions));
  d.add("downloads_aborted", std::uint64_t(r.downloads_aborted));
  d.add("bytes_discarded", r.bytes_discarded);
  d.add("degraded_chunks", std::uint64_t(r.degraded_chunks));
  d.add("qoe", r.qoe);
  d.add("normalized_qoe", r.normalized_qoe);
  d.add("stall_seconds", r.stall_seconds);
  d.add("total_bytes", r.total_bytes);
  d.add("total_stall_seconds", r.total_stall_seconds);
  d.add("played_seconds", r.played_seconds);
  d.add("stall_rate", r.stall_rate);
  d.add("sim_seconds", r.sim_seconds);
  d.add("cache", r.cache);
  for (const EncodeCacheStats& shard : r.cache_shards) d.add("shard", shard);
  const EncodeQueueStats& q = r.encode_queue;
  d.add("encode.starts", q.encode_starts);
  d.add("encode.coalesced_joins", q.coalesced_joins);
  d.add("encode.completions", q.completions);
  d.add("encode.peak_in_flight", std::uint64_t(q.peak_in_flight));
  d.add("encode.failures", q.failures);
  d.add("encode.retries", q.retries);
  d.add("encode.exhausted", q.exhausted);
  d.add("encode.abandoned", q.abandoned);
  for (std::size_t k = 0; k < r.replicas.size(); ++k) {
    const ReplicaStats& s = r.replicas[k];
    d.section("replica " + std::to_string(k));
    d.add("sessions_assigned", std::uint64_t(s.sessions_assigned));
    d.add("peak_concurrent_flows", std::uint64_t(s.peak_concurrent_flows));
    d.add("flows_started", s.flows_started);
    d.add("flows_completed", s.flows_completed);
    d.add("flows_aborted", s.flows_aborted);
    d.add("bytes_completed", s.bytes_completed);
    d.add("bits_drained", s.bits_drained);
    d.add("uplink_trace_wraps", s.uplink_trace_wraps);
    d.add("crashes", std::uint64_t(s.crashes));
    d.add("down_seconds", s.down_seconds);
    d.add("degraded_seconds", s.degraded_seconds);
    d.add("breaker_trips", std::uint64_t(s.breaker_trips));
  }
  d.section("events");
  d.add("timeline_events", r.timeline_events);
  d.add("events.dropped", r.events.dropped());
  for (std::size_t t = 0; t < kFleetEventTypeCount; ++t) {
    d.add(fleet_event_name(FleetEventType(t)), r.events.type_counts()[t]);
  }
  return d.text();
}

/// The first line where two dumps differ, with its line number.
std::string first_difference(const std::string& a, const std::string& b) {
  std::size_t line = 1, start = 0;
  for (std::size_t k = 0; k < std::min(a.size(), b.size()); ++k) {
    if (a[k] != b[k]) break;
    if (a[k] == '\n') {
      ++line;
      start = k + 1;
    }
  }
  const auto line_at = [start](const std::string& s) {
    return s.substr(start, s.find('\n', start) - start);
  };
  return "line " + std::to_string(line) + ": run_fleet '" + line_at(a) +
         "' vs reference '" + line_at(b) + "'";
}

/// A small random fleet. Every axis the event loop branches on is drawn:
/// arrival clumping (ties at one instant), zero-chunk sessions, ViVo and
/// SR kinds, access-link caps, RTT 0, admission caps down to one slot, a
/// waiting room that is off, finite or infinite, tiny caches, free and
/// slow encodes, and — on about half the configs — crashes, blackouts,
/// brownouts, degradation windows and encode failures.
FleetConfig random_config(std::uint64_t seed, const MotionTrace* motion) {
  CounterRng rng(seed, /*stream=*/0xD1FF);
  const auto pick = [&rng](auto... options) {
    const double values[] = {double(options)...};
    return values[rng.next(sizeof...(options))];
  };
  FleetConfig fleet;
  // Draws are sequenced one per statement: argument evaluation order is
  // unspecified, and the configs should not depend on the compiler.
  const std::size_t n = 1 + rng.next(14);
  const double spacing = pick(0.0, 0.05, 0.25, 0.5);
  const std::size_t max_chunks = 1 + rng.next(6);
  fleet.clients = make_mixed_fleet(n, spacing, max_chunks, 0.01);
  for (FleetClientConfig& client : fleet.clients) {
    if (rng.next(4) == 0) client.arrival_seconds = pick(0.0, 0.5, 1.0);
    if (rng.next(8) == 0) client.session.max_chunks = 0;
    if (rng.next(8) == 0) {
      client.session.kind = SystemKind::kVivo;
      client.motion = motion;
    }
    if (rng.next(5) == 0) {
      const double mbps = pick(8.0, 20.0);
      client.downlink = BandwidthTrace::lte(mbps, 4.0, 120.0, rng.next(1000));
    }
  }
  const std::size_t replicas = 1 + rng.next(3);
  for (std::size_t r = 0; r < replicas; ++r) {
    if (rng.next(2) == 0) {
      fleet.replica_uplinks.push_back(
          BandwidthTrace::stable(pick(15.0, 40.0, 80.0)));
    } else {
      const double mbps = pick(20.0, 60.0);
      fleet.replica_uplinks.push_back(
          BandwidthTrace::lte(mbps, 8.0, 300.0, 100 + rng.next(1000)));
    }
  }
  fleet.rtt_seconds = pick(0.0, 0.0, 0.01, 0.02);
  fleet.max_sessions_per_replica = std::size_t(pick(0, 1, 2, 3));
  fleet.max_wait_seconds = pick(0.0, 0.2, 1.5, 4.0, kInf);
  fleet.cache_budget_bytes = std::size_t(pick(32u << 10, 1u << 20, 256u << 20));
  fleet.shard_cache_per_replica = rng.next(2) == 0;
  fleet.density_buckets = std::uint32_t(pick(4, 16));
  fleet.encode_seconds_full = pick(0.0, 0.02, 0.08);
  fleet.event_log_capacity = std::size_t(pick(1 << 16, 1 << 16, 64));

  if (rng.next(2) == 0) {
    FaultScheduleConfig& faults = fleet.faults;
    faults.seed = seed;
    const auto window = [&]() {
      return FaultWindow{rng.next(replicas), pick(0.0, 0.3, 0.5, 1.0, 2.0),
                         pick(0.1, 0.3, 1.0, 2.5)};
    };
    for (std::uint64_t k = rng.next(3); k > 0; --k) {
      faults.crashes.push_back(window());
    }
    if (rng.next(3) == 0) faults.blackouts.push_back(window());
    if (rng.next(3) == 0) faults.brownouts.push_back(window());
    if (rng.next(3) == 0) faults.degradations.push_back(window());
    faults.encode_failure_rate = pick(0.0, 0.1, 0.3, 1.0);
    fleet.recovery.encode_max_attempts = std::uint32_t(1 + rng.next(4));
    fleet.recovery.encode_backoff_base_seconds = pick(0.0, 0.05, 0.2);
    fleet.recovery.encode_backoff_cap_seconds = 1.0;
    fleet.recovery.breaker_failure_threshold = std::uint32_t(pick(0, 1, 3));
    fleet.recovery.breaker_reset_seconds = pick(0.5, 2.0);
    fleet.recovery.degrade_density_when_degraded = rng.next(2) == 0;
  }
  return fleet;
}

TEST(FleetDiffTest, WakeupIndexMatchesRescanningLoop) {
  MotionTraceSpec mspec;
  mspec.frames = 600;
  const MotionTrace motion = MotionTrace::generate(mspec, /*user=*/3);
  std::size_t armed = 0, waiting_room = 0, timeouts = 0, failovers = 0,
              incomplete = 0;
  for (std::uint64_t seed = 0; seed < kConfigs; ++seed) {
    const FleetConfig config = random_config(seed, &motion);
    const FleetResult fast = run_fleet(config);
    const FleetResult slow = run_fleet_reference(config);
    const std::string fast_dump = describe(fast);
    const std::string slow_dump = describe(slow);
    ASSERT_TRUE(fast_dump == slow_dump)
        << "config seed " << seed << ", "
        << first_difference(fast_dump, slow_dump);
    ASSERT_TRUE(fast.events == slow.events) << "config seed " << seed;
    ASSERT_EQ(fast.events.to_json(), slow.events.to_json())
        << "config seed " << seed;
    armed += config.faults.empty() ? 0 : 1;
    waiting_room += fast.queue_depth_peak > 0 ? 1 : 0;
    timeouts += fast.events.type_count(FleetEventType::kWaitTimeout) > 0;
    failovers += fast.failovers > 0 ? 1 : 0;
    incomplete += fast.completed ? 0 : 1;
  }
  // The draw must actually reach the paths it is meant to cover.
  EXPECT_GT(armed, kConfigs / 4);
  EXPECT_GT(waiting_room, 10u);
  EXPECT_GT(timeouts, 5u);
  EXPECT_GT(failovers, 10u);
  std::printf("%llu configs: %zu armed, %zu queued, %zu with timeouts, "
              "%zu with failovers, %zu incomplete\n",
              (unsigned long long)kConfigs, armed, waiting_room, timeouts,
              failovers, incomplete);
}

TEST(FleetDiffTest, RejectsNanEventTimes) {
  // A NaN has no place in the wakeup index's order; it is refused up front
  // (arrivals) or where it first becomes an event time (RTT).
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  FleetConfig config;
  config.clients = make_mixed_fleet(2, 0.25, /*max_chunks=*/2);
  config.replica_uplinks = {BandwidthTrace::stable(40.0)};
  config.clients[1].arrival_seconds = kNan;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
  config.clients[1].arrival_seconds = 0.25;
  config.rtt_seconds = kNan;
  EXPECT_THROW(run_fleet(config), std::invalid_argument);
}

}  // namespace
}  // namespace volut
