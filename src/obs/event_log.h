// Deterministic sim-time event timeline for the fleet simulator.
//
// run_fleet drives every session from one single-threaded event loop over
// simulator time; the EventLog records that loop's per-session milestones
// (admission, waiting-room transitions, chunk requests, encode lifecycle,
// cache hits/misses/evictions, downloads, rebuffers, quality switches) into
// a capacity-bounded ring buffer keyed by sim time. Because emission happens
// only on the timeline thread and is keyed by simulator — not wall — time,
// the log is bit-identical for any ThreadPool worker count, same as every
// other fleet output.
//
// Unlike the metrics/trace layer this is NOT compiled out under
// VOLUT_OBS=OFF: the timeline is a deterministic simulation record (an
// output of run_fleet, like FleetResult rollups), not optional telemetry.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace volut {

enum class FleetEventType : std::uint8_t {
  kAdmit = 0,
  kWaitEnqueue,
  kWaitPromote,
  kWaitTimeout,
  kReject,
  kChunkRequest,
  kEncodeStart,
  kEncodeCoalesce,
  kEncodeComplete,
  kCacheHit,
  kCacheMiss,
  kCacheEvict,
  kDownloadStart,
  kDownloadFinish,
  kRebufferStart,
  kRebufferEnd,
  kQualitySwitch,
  kSessionDone,
  // Fault-injection + recovery lifecycle (serve/faults.h). Replica-scoped
  // events carry kNoSession; session-scoped ones name the failing-over or
  // failing client.
  kReplicaDown,       // crash window opens; value = restart delay (s)
  kReplicaUp,         // crash window closes
  kReplicaDegraded,   // scheduled slow-replica window opens
  kReplicaRecovered,  // slow-replica window closes
  kUplinkDegrade,     // uplink scale drops; value = new capacity multiplier
  kUplinkRestore,     // uplink back to full capacity
  kDownloadAbort,     // in-flight flow killed by a crash; value = bytes lost
  kFailoverStart,     // session unbound from its crashed replica
  kFailoverComplete,  // session re-admitted; value = failover latency (s)
  kEncodeFail,        // encode attempt failed; value = attempt number
  kEncodeRetry,       // failed encode rescheduled; value = backoff (s)
  kEncodeGiveUp,      // attempts exhausted; waiters convert to session errors
  kEncodeAbandon,     // encode completed after every waiter departed
  kSessionFail,       // admitted session lost to a fault
  kDensityDownshift,  // graceful degradation; value = downshifted ratio
  kBreakerTrip,       // consecutive encode failures marked replica degraded
  kBreakerReset,      // circuit breaker re-closed
};

inline constexpr std::size_t kFleetEventTypeCount = 35;

/// Stable snake_case name for JSON export and logs.
const char* fleet_event_name(FleetEventType type);

/// Session id for events not tied to one session (encode completions are
/// keyed by cache shard, not requester).
inline constexpr std::uint32_t kNoSession = 0xFFFFFFFFu;

struct FleetEvent {
  /// Simulator time, seconds.
  double time = 0.0;
  FleetEventType type = FleetEventType::kAdmit;
  std::uint32_t session = kNoSession;
  /// Replica (or cache shard for encode events); -1 when not applicable.
  std::int32_t replica = -1;
  /// Type-dependent payload: bytes for downloads/encodes, wait seconds for
  /// promotions, chunk index for requests, quality for switches, stall
  /// seconds for rebuffers, eviction count for evictions.
  double value = 0.0;

  friend bool operator==(const FleetEvent&, const FleetEvent&) = default;
};

/// Ring buffer of FleetEvents plus always-complete per-type totals. When the
/// ring wraps, the oldest events are dropped (counted in dropped()) but
/// type_counts() still reflects every recorded event, so rollup-level
/// determinism checks stay exact even under small capacities. Capacity 0
/// disables retention entirely (record() still counts).
class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 0) : capacity_(capacity) {}

  void record(double time, FleetEventType type,
              std::uint32_t session = kNoSession, std::int32_t replica = -1,
              double value = 0.0);

  /// Total events ever recorded (including dropped ones).
  std::uint64_t recorded() const { return recorded_; }
  /// Events lost to ring wrap-around.
  std::uint64_t dropped() const {
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
  }

  /// Retained events in chronological (recording) order.
  std::vector<FleetEvent> events() const;
  /// Per-type totals over ALL recorded events, indexed by FleetEventType.
  const std::array<std::uint64_t, kFleetEventTypeCount>& type_counts() const {
    return counts_;
  }
  std::uint64_t type_count(FleetEventType type) const {
    return counts_[static_cast<std::size_t>(type)];
  }

  /// {"schema": "volut-fleet-events-v1", "recorded": N, "dropped": D,
  ///  "events": [{"t", "type", "session", "replica", "value"}, ...]}
  std::string to_json() const;
  /// Same shape, filtered to one session's events — the per-session export.
  std::string session_json(std::uint32_t session) const;

  /// Bit-identity: equal totals, per-type counts and retained events.
  friend bool operator==(const EventLog& a, const EventLog& b);

 private:
  std::string json_for(const std::vector<FleetEvent>& events) const;

  std::size_t capacity_ = 0;
  std::uint64_t recorded_ = 0;
  std::array<std::uint64_t, kFleetEventTypeCount> counts_{};
  std::vector<FleetEvent> ring_;
};

}  // namespace volut
