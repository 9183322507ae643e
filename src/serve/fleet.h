// Fleet serving simulator: N concurrent streaming sessions against a small
// pool of server replicas.
//
// The single-session simulator (stream/session.h) models one client on one
// private link; a production deployment serves millions of concurrent
// viewers from shared infrastructure. This subsystem grows the model one
// structural level: an event-driven timeline interleaves many SessionEngine
// clients (staggered arrivals, mixed videos, mixed SystemKinds, optional
// per-client access-link traces) that contend for
//   * replica uplink capacity — each replica's BandwidthTrace is fair-shared
//     across its active chunk downloads (net/shared_link.h),
//   * server encode work — single-flight encode queues over sharded LRU
//     chunk-encode caches (serve/encode_queue.h): the first miss of a
//     (video, chunk, density-bucket) key starts an encode, concurrent
//     requesters coalesce onto it as waiters released at its completion,
//     and the artifact becomes cache-resident only once the encode finishes
//     (no phantom hits),
//   * admission slots — arrivals are routed to the least-loaded replica;
//     when every replica is at its session cap they enter a FIFO waiting
//     room and are admitted as sessions complete, converting to rejections
//     after max_wait_seconds (0 = classic reject-at-cap).
// Per-session QoE rolls up into fleet percentiles via metrics/stats.
//
// Faults are a first-class input (serve/faults.h): a deterministic schedule
// can crash replicas (sessions fail over through re-admission — the waiting
// room is reused when capacity is tight; in-flight downloads abort and the
// active chunk re-requests on the new replica with its partial bytes
// discarded), black/brown out uplinks (SharedLink re-rates its flows at the
// boundary), fail encodes (retried under capped exponential backoff until
// they convert to session errors), and degrade replicas (deprioritized by
// routing, slower encodes, optional graceful one-bucket density downshift).
// A circuit breaker marks a replica degraded after consecutive encode
// failures. Every transition lands in the EventLog and the FleetResult
// counts; run_fleet publishes those counts to the metrics registry (the
// serve/* names) once, at the end of each run — the result is the store.
//
// Determinism: the timeline is strictly ordered (time, then event class,
// then client index), so a fleet run is bit-identical for any ThreadPool
// worker count — the pool only fans out the optional per-session SR
// measurements, each of which writes its own result slot. A 1-client fleet
// reproduces run_session for the same config (serve_test parity).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/data/motion_trace.h"
#include "src/metrics/stats.h"
#include "src/net/shared_link.h"
#include "src/obs/event_log.h"
#include "src/net/trace.h"
#include "src/platform/thread_pool.h"
#include "src/serve/encode_cache.h"
#include "src/serve/encode_queue.h"
#include "src/serve/faults.h"
#include "src/sr/lut.h"
#include "src/stream/session.h"

namespace volut {

struct FleetClientConfig {
  SessionConfig session;
  /// When this viewer shows up (seconds into the fleet timeline).
  double arrival_seconds = 0.0;
  /// Optional access-link trace capping this client's download rate on top
  /// of its replica-uplink share (empty = uplink-limited only).
  BandwidthTrace downlink;
  /// Head-motion trace for ViVo clients (unowned; may be null).
  const MotionTrace* motion = nullptr;
};

struct FleetConfig {
  std::vector<FleetClientConfig> clients;
  /// One shared uplink per replica; at least one required.
  std::vector<BandwidthTrace> replica_uplinks;
  double rtt_seconds = 0.010;
  /// Admission cap per replica (0 = unbounded).
  std::size_t max_sessions_per_replica = 0;
  /// How long an arrival that finds every replica at the cap may sit in the
  /// FIFO waiting room before converting to a rejection. 0 (the default)
  /// disables the waiting room and reproduces classic reject-at-cap;
  /// +infinity means wait until admitted (or until the timeline ends).
  /// Waiters are admitted least-loaded-first (lowest replica index on ties)
  /// as sessions complete; an admission at exactly the waiter's deadline
  /// still wins over the timeout.
  double max_wait_seconds = 0.0;
  /// Byte budget of the chunk-encode cache (split evenly across shards when
  /// sharding is on).
  std::size_t cache_budget_bytes = 256u << 20;
  /// When true, the encode cache is split into one shard per replica with a
  /// consistent-hash key->shard map (per-replica budgets and hit rates,
  /// FleetResult::cache_shards). False keeps the single fleet-wide cache.
  bool shard_cache_per_replica = false;
  /// Density-ratio ladder resolution for encode-cache keys.
  std::uint32_t density_buckets = 16;
  /// Server-side encode latency of a cache miss, in seconds for a
  /// full-density chunk (scales linearly with density). 0 keeps hit/miss
  /// accounting but makes encodes free — the run_session-parity setting.
  double encode_seconds_full = 0.0;
  /// Every k-th chunk of each VoLUT session also runs the real SR pipeline
  /// on a sampled frame (0 = off). Samples fan out over the ThreadPool;
  /// results land in fixed slots, so they are worker-count-independent.
  std::size_t measure_sr_stride = 0;
  /// Distilled refinement LUT for the measured-SR pipeline. When null a
  /// blank (zero-offset) LUT is used, i.e. the chamfer numbers measure
  /// dilated interpolation only — pass a trained LUT (e.g. bench
  /// train_assets) to measure full VoLUT SR.
  std::shared_ptr<const RefinementLut> sr_lut;
  /// Ring capacity of FleetResult::events (retained events; per-type totals
  /// always cover the whole run). 0 disables event retention.
  std::size_t event_log_capacity = std::size_t(1) << 16;
  /// Deterministic fault schedule (serve/faults.h). The default (empty)
  /// schedule injects nothing and keeps every result bit-identical to a
  /// fault-free build — pinned by serve_faults_test.
  FaultScheduleConfig faults;
  /// Recovery policy: encode retry/backoff budget, circuit breaker, and
  /// graceful density degradation. Only consulted when faults are armed.
  FaultRecoveryConfig recovery;
};

/// One measured SR data point. Everything except `sr_ms` (wall-clock) is
/// deterministic.
struct FleetSrSample {
  std::size_t client = 0;
  std::size_t chunk = 0;
  double density_ratio = 1.0;
  /// Ground-truth -> SR-output coverage error of the sampled frame
  /// (interpolation-only unless FleetConfig::sr_lut supplies a trained LUT).
  double chamfer = 0.0;
  double sr_ms = 0.0;
};

struct ReplicaStats {
  /// Sessions bound to this replica, failover re-admissions included.
  std::size_t sessions_assigned = 0;
  std::size_t peak_concurrent_flows = 0;
  double bytes_completed = 0.0;
  double bits_drained = 0.0;
  /// Times the uplink trace silently repeated during the run; nonzero means
  /// the simulation outlived the capture (BandwidthTrace::wrap_count).
  std::uint64_t uplink_trace_wraps = 0;
  /// Fault exposure: crash windows entered, total seconds down, total
  /// seconds degraded (scheduled windows and circuit-breaker trips), and
  /// breaker trips. All zero when the fault schedule is empty.
  std::size_t crashes = 0;
  double down_seconds = 0.0;
  double degraded_seconds = 0.0;
  std::size_t breaker_trips = 0;
};

struct FleetResult {
  /// Index-aligned with FleetConfig::clients; rejected clients keep a
  /// default-constructed SessionResult (empty system name, no chunks).
  std::vector<SessionResult> sessions;
  /// Replica each client was routed to; SIZE_MAX for rejected clients.
  std::vector<std::size_t> replica_of;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  /// Subset of `rejected` that queued in the waiting room first and timed
  /// out after max_wait_seconds.
  std::size_t timed_out = 0;

  /// Index-aligned with clients: seconds spent in the waiting room before
  /// admission (0 for immediate admission) or before timing out.
  std::vector<double> wait_seconds;
  /// Waiting-room time over admitted clients (immediate admissions count as
  /// zero wait).
  Summary wait_time;
  std::size_t queue_depth_peak = 0;

  /// False when the timeline stopped before every admitted session finished
  /// (dead uplink, event-budget exhaustion): session results and rollups
  /// then cover truncated sessions and must not be read as a clean run.
  /// Sessions lost to faults (failed_sessions) count as finished — losing a
  /// session to a crash is an outcome, not a stuck timeline.
  bool completed = true;
  /// Admitted sessions still mid-stream when the timeline stopped.
  std::size_t unfinished_sessions = 0;

  // ---- fault & recovery accounting (all zero with an empty schedule) ----
  /// Completed failovers: sessions re-admitted after their replica crashed.
  std::size_t failovers = 0;
  /// kFailoverStart -> kFailoverComplete latency per completed failover
  /// (0 when capacity was free; waiting-room time when it was not).
  Summary failover_time;
  /// Admitted sessions lost to faults: terminal encode failure, no-capacity
  /// failover with the waiting room disabled, or failover wait timeout.
  /// Their partial session results stay in `sessions` and the QoE rollups.
  std::size_t failed_sessions = 0;
  /// In-flight downloads killed by replica crashes, and the partial bytes
  /// the viewers had received and discarded.
  std::size_t downloads_aborted = 0;
  double bytes_discarded = 0.0;
  /// Chunks gracefully downshifted one density bucket because their
  /// replica was degraded (recovery.degrade_density_when_degraded).
  std::size_t degraded_chunks = 0;

  Summary qoe;             // raw Eq. 10 sums over admitted sessions
  Summary normalized_qoe;  // 0..100 per session
  Summary stall_seconds;   // per session
  double total_bytes = 0.0;
  double total_stall_seconds = 0.0;
  double played_seconds = 0.0;
  /// Fraction of wall time viewers spent stalled:
  /// stall / (stall + played).
  double stall_rate = 0.0;
  double sim_seconds = 0.0;

  /// Hit/miss/eviction counters aggregated over every cache shard. A
  /// coalesced join counts as a miss here (the artifact was not resident);
  /// encode_queue.coalesced_joins says how many misses shared an encode.
  EncodeCacheStats cache;
  /// Per-shard counters: one entry per replica when shard_cache_per_replica,
  /// a single entry otherwise.
  std::vector<EncodeCacheStats> cache_shards;
  EncodeQueueStats encode_queue;
  std::vector<ReplicaStats> replicas;
  std::vector<FleetSrSample> sr_samples;

  /// Sim-time event timeline (admissions, encode lifecycle, downloads,
  /// rebuffers, ...) keyed by simulator time — bit-identical across worker
  /// counts; EventLog::session_json exports one client's timeline.
  EventLog events;
  /// Events recorded over the whole run (== events.recorded()).
  std::uint64_t timeline_events = 0;
};

/// Runs the fleet to completion. `pool` (optional) parallelizes the
/// measured-SR samples; the timeline itself is single-threaded and
/// deterministic — all serve-layer mutable state (encode queue, caches,
/// waiting room, replica health) is touched only from this loop and is
/// marked `// single-threaded: run_fleet` instead of lock-guarded (the
/// convention in core/thread_annotations.h). Throws std::invalid_argument
/// if no replicas are given.
FleetResult run_fleet(const FleetConfig& config, ThreadPool* pool = nullptr);

/// Convenience mix: `n` clients with `arrival_spacing_seconds` staggered
/// arrivals, cycling through the four synthetic videos and the evaluated
/// systems (H1/H2/H3/raw). All clients of one video share content (same
/// generator seed), which is what gives the encode cache something to do.
std::vector<FleetClientConfig> make_mixed_fleet(
    std::size_t n, double arrival_spacing_seconds, std::size_t max_chunks,
    double video_scale = 0.01);

}  // namespace volut
