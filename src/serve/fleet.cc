#include "src/serve/fleet.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/metrics/chamfer.h"
#include "src/obs/metrics.h"
#include "src/sr/pipeline.h"
#include "src/stream/server.h"

namespace volut {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoReplica = std::size_t(-1);

enum class ClientState {
  kPending,      // not yet arrived
  kWaiting,      // in the admission waiting room; t_next = timeout deadline
  kIdle,         // will issue its next chunk request at t_next
  kRequested,    // request in flight: RTT + (on cache miss) encode latency
  kDownloading,  // owns an active flow on its replica's uplink
  kDone,
  kRejected,
  kFailed,       // admitted session lost to a fault (terminal encode
                 // failure, or no capacity to fail over to)
};

/// States with a timed next transition: exactly the clients in the wakeup
/// index.
bool wakeable(ClientState state) {
  return state == ClientState::kPending || state == ClientState::kWaiting ||
         state == ClientState::kIdle || state == ClientState::kRequested;
}

/// Ordered by (t_next, client): begin() is the next client transition.
using WakeupIndex = std::set<std::pair<double, std::size_t>>;

struct ClientRuntime {
  std::unique_ptr<SessionEngine> engine;
  ClientState state = ClientState::kPending;
  std::size_t replica = kNoReplica;
  /// Next state-transition time while wakeable(state); the client's key in
  /// the wakeup index.
  double t_next = 0.0;
  double issued_at = 0.0;
  /// When this client entered the waiting room (kWaiting only).
  double waiting_since = 0.0;
  double flow_bytes = 0.0;
  std::uint64_t flow_id = 0;
  bool startup_flow = false;
  /// Quality switches already reported to the event log, so each
  /// complete_chunk emits at most one kQualitySwitch for its own delta.
  std::size_t switches_seen = 0;
  ChunkPlan plan;
  // ---- what the session does once bound to a replica (admit_client) ----
  /// The startup download is owed: a fresh admission's, or one a crash
  /// interrupted.
  bool needs_startup = false;
  /// Interrupted mid-chunk: re-issue `plan` (without re-planning — the ABR
  /// already advanced) once re-admitted.
  bool redo_chunk = false;
  /// Otherwise: issue the next request at this time (not before).
  double resume_at = 0.0;
  /// When this session was unbound from its crashed replica.
  double failover_since = 0.0;
};

/// One replica's serving state: its uplink, the flows on it, the sessions
/// bound to it, its fault health and its ReplicaStats.
struct Replica {
  explicit Replica(const BandwidthTrace& uplink) : link(uplink) {}
  SharedLink link;
  /// Uplink flow id -> the client downloading it.
  std::unordered_map<std::uint64_t, std::size_t> flow_owner;
  /// Clients bound to this replica, in client-index order: the only record
  /// of which sessions it serves, so its size is the replica's load.
  std::set<std::size_t> sessions;
  // Health: crash window, scheduled degradation and circuit breaker.
  // eff_degraded (schedule OR breaker) is what routing and encoding consult;
  // the *_since times feed `stats`.
  bool down = false;
  bool sched_degraded = false;
  bool breaker_open = false;
  bool eff_degraded = false;
  double breaker_until = kInf;
  std::uint32_t consec_encode_failures = 0;
  double down_since = 0.0;
  double degraded_since = 0.0;
  /// The loop's per-replica counters; the rollup adds the link totals.
  ReplicaStats stats;
};

struct SrWorkItem {
  std::size_t client = 0;
  std::size_t chunk = 0;
  double density_ratio = 1.0;
  VideoSpec spec;
  double chunk_seconds = 1.0;
};

/// Encode-cache identity of client c's current chunk plan.
EncodeCacheKey plan_key(const ClientRuntime& c, std::uint32_t buckets) {
  const VideoSpec& spec = c.engine->config().video;
  EncodeCacheKey key;
  key.video = static_cast<std::uint32_t>(spec.id);
  key.points_per_frame = static_cast<std::uint32_t>(spec.points_per_frame);
  key.content_seed = static_cast<std::uint32_t>(spec.seed);
  key.chunk = static_cast<std::uint32_t>(c.plan.index);
  key.density_bucket = density_bucket(c.plan.density_ratio, buckets);
  return key;
}

/// Least-loaded replica with a free admission slot, lowest index on ties.
/// Down replicas are skipped and healthy replicas win over degraded ones
/// regardless of load (degraded capacity is a last resort). kNoReplica when
/// no up replica has a slot.
std::size_t route_arrival(const std::vector<Replica>& replicas,
                          std::size_t cap) {
  std::size_t best = kNoReplica;
  bool best_degraded = false;
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    const Replica& replica = replicas[r];
    const std::size_t load = replica.sessions.size();
    if (replica.down || (cap != 0 && load >= cap)) continue;
    const bool deg = replica.eff_degraded;
    if (best == kNoReplica || (best_degraded && !deg) ||
        (deg == best_degraded && load < replicas[best].sessions.size())) {
      best = r;
      best_degraded = deg;
    }
  }
  return best;
}

#ifndef NDEBUG
/// Debug builds: recounts, from the clients, everything the event loop
/// keeps incrementally (session sets and flow owners included), checks that
/// each uplink conserves bits, and throws std::logic_error on the first
/// disagreement. O(clients) per call, so it runs only without NDEBUG.
void check_fleet_invariants(const std::vector<ClientRuntime>& clients,
                            const std::vector<Replica>& replicas,
                            const std::deque<std::size_t>& waiting_room,
                            std::size_t remaining, const WakeupIndex& wakeups) {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::logic_error(std::string("run_fleet: ") + what);
  };
  std::vector<bool> queued(clients.size(), false);
  for (const std::size_t i : waiting_room) {
    require(i < clients.size() && clients[i].state == ClientState::kWaiting &&
                !queued[i],
            "waiting room holds a client that is not waiting, or twice");
    queued[i] = true;
  }
  std::size_t live = 0, bound = 0, flows = 0, woken = 0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const ClientRuntime& c = clients[i];
    const ClientState s = c.state;
    if (s != ClientState::kDone && s != ClientState::kRejected &&
        s != ClientState::kFailed) {
      ++live;
    }
    if (s == ClientState::kIdle || s == ClientState::kRequested ||
        s == ClientState::kDownloading) {
      require(c.replica < replicas.size() &&
                  replicas[c.replica].sessions.count(i) == 1,
              "running session is not in its replica's session set");
      ++bound;
    } else {
      require(c.replica == kNoReplica, "parked client is bound to a replica");
    }
    if (s == ClientState::kDownloading) {
      ++flows;
      const auto& flow_owner = replicas[c.replica].flow_owner;
      const auto owner = flow_owner.find(c.flow_id);
      require(owner != flow_owner.end() && owner->second == i,
              "downloading client does not own its flow");
    }
    require(s != ClientState::kWaiting || queued[i],
            "waiting client missing from the waiting room");
    if (wakeable(s)) {
      ++woken;
      require(wakeups.count({c.t_next, i}) == 1,
              "wakeable client not indexed under its t_next");
    }
  }
  std::size_t owned = 0, members = 0;
  for (const Replica& replica : replicas) {
    owned += replica.flow_owner.size();
    members += replica.sessions.size();
    // Each drained bit went to a flow that completed, aborted or is active.
    const SharedLink& link = replica.link;
    const double drained = link.bits_drained();
    const double received =
        8.0 * (link.bytes_completed() + link.bytes_aborted()) +
        link.active_bits_delivered();
    require(std::abs(drained - received) <= 1e-9 * std::max(1.0, drained),
            "an uplink drained bits no flow received");
  }
  require(members == bound,
          "a replica's session set holds a client not bound to it");
  require(owned == flows, "flow_owner holds a flow no client downloads");
  require(remaining == live, "remaining differs from the live clients");
  require(wakeups.size() == woken, "wakeup index holds a parked client");
}
#endif

void measure_sr_samples(const std::vector<SrWorkItem>& work,
                        std::shared_ptr<const RefinementLut> lut,
                        std::vector<FleetSrSample>& out, ThreadPool* pool) {
  out.resize(work.size());
  if (lut == nullptr) {
    // Blank LUT: zero refinement offsets, i.e. interpolation-only SR.
    lut = std::make_shared<RefinementLut>(LutSpec{4, 16});
  }
  InterpolationConfig interp;
  interp.dilation = 2;
  // Every sample regenerates its own VideoServer (the server's sampling RNG
  // is stateful) and writes one fixed slot, so the fan-out is bit-identical
  // for any worker count. Only sr_ms is wall-clock and excluded from that
  // guarantee.
  run_chunked(pool, work.size(), 1,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                for (std::size_t s = begin; s < end; ++s) {
                  const SrWorkItem& item = work[s];
                  VideoServer server(item.spec);
                  const PointCloud low = server.encode_sample_frame(
                      item.chunk, item.density_ratio, item.chunk_seconds);
                  const PointCloud gt = server.ground_truth_frame(
                      item.chunk, item.chunk_seconds);
                  const SrPipeline pipeline(lut, interp, nullptr);
                  const SrResult sr =
                      pipeline.upsample(low, 1.0 / item.density_ratio);
                  FleetSrSample& sample = out[s];
                  sample.client = item.client;
                  sample.chunk = item.chunk;
                  sample.density_ratio = item.density_ratio;
                  sample.chamfer = directed_chamfer(gt, sr.cloud);
                  sample.sr_ms = sr.timing.total_ms();
                }
              });
}

/// Adds one run's serve totals, and its replica uplinks' net/* flow totals,
/// to the process-wide registry, reading only the finished result's fields. The
/// registry accumulates across runs, so each run adds its totals once, at
/// its end, and never overwrites what earlier runs published.
void publish_serve_metrics(const FleetResult& result,
                           const std::vector<double>& failover_latencies) {
  MetricsRegistry& reg = MetricsRegistry::global();
  static constexpr std::pair<const char*, std::uint64_t EncodeCacheStats::*>
      kShardCounters[] = {
          {"hits", &EncodeCacheStats::hits},
          {"misses", &EncodeCacheStats::misses},
          {"evictions", &EncodeCacheStats::evictions},
          {"insertions", &EncodeCacheStats::insertions},
          {"oversized_rejects", &EncodeCacheStats::oversized_rejects},
      };
  for (std::size_t s = 0; s < result.cache_shards.size(); ++s) {
    const std::string base = "serve/cache/shard" + std::to_string(s) + "/";
    for (const auto& [name, field] : kShardCounters) {
      reg.counter(base + name).add(result.cache_shards[s].*field);
    }
  }
  const EncodeQueueStats& encode = result.encode_queue;
  std::uint64_t breaker_trips = 0;
  std::uint64_t flows_started = 0, flows_completed = 0, flows_aborted = 0;
  double bytes_completed = 0.0;
  for (const ReplicaStats& replica : result.replicas) {
    breaker_trips += replica.breaker_trips;
    flows_started += replica.flows_started;
    flows_completed += replica.flows_completed;
    flows_aborted += replica.flows_aborted;
    bytes_completed += replica.bytes_completed;
  }
  const std::pair<const char*, std::uint64_t> run_counters[] = {
      {"serve/encode/starts", encode.encode_starts},
      {"serve/encode/coalesced_joins", encode.coalesced_joins},
      {"serve/encode/completions", encode.completions},
      {"serve/encode/failures", encode.failures},
      {"serve/encode/retries", encode.retries},
      {"serve/encode/give_ups", encode.exhausted},
      {"serve/encode/abandoned", encode.abandoned},
      {"serve/fleet/failovers", result.failovers},
      {"serve/fleet/session_failures", result.failed_sessions},
      {"serve/fleet/downloads_aborted", result.downloads_aborted},
      {"serve/fleet/density_downshifts", result.degraded_chunks},
      {"serve/fleet/breaker_trips", breaker_trips},
      {"net/flows_started", flows_started},
      {"net/flows_completed", flows_completed},
      {"net/flows_aborted", flows_aborted},
      {"net/bytes_completed", std::uint64_t(std::llround(bytes_completed))},
  };
  for (const auto& [name, value] : run_counters) reg.counter(name).add(value);
  reg.gauge("serve/encode/peak_in_flight")
      .set_max(double(encode.peak_in_flight));
  static constexpr double kFailoverBounds[] = {0.05, 0.1, 0.25, 0.5, 1.0,
                                               2.0,  5.0, 10.0, 30.0};
  Histogram& failover =
      reg.histogram("serve/fleet/failover_seconds", kFailoverBounds);
  for (const double latency : failover_latencies) failover.observe(latency);
}

}  // namespace

FleetResult run_fleet(const FleetConfig& config, ThreadPool* pool) {
  if (config.replica_uplinks.empty()) {
    throw std::invalid_argument("run_fleet: at least one replica required");
  }
  const std::size_t n_clients = config.clients.size();
  const std::size_t n_replicas = config.replica_uplinks.size();

  // Compile the fault schedule up front (validates the config; an empty
  // schedule makes every fault branch below a no-op).
  const FaultSchedule faults(config.faults, n_replicas);
  const bool faults_armed = !faults.empty();

  std::vector<Replica> replicas;
  replicas.reserve(n_replicas);
  for (const BandwidthTrace& uplink : config.replica_uplinks) {
    replicas.emplace_back(uplink);
  }
  EncodeQueue queue(config.shard_cache_per_replica ? n_replicas : 1,
                    config.cache_budget_bytes);
  // single-threaded: run_fleet — the timeline below is the fleet's one
  // event loop; everything it mutates (queue, log, waiting room, replica
  // records) is unguarded by design. Only the measured-SR fan-out leaves
  // this thread, and each sample writes its own result slot. The event log
  // is keyed by sim time, so it shares the run's bit-identity guarantee.
  EventLog log(config.event_log_capacity);
  queue.set_event_log(&log);
  if (faults_armed && config.faults.encode_failure_rate > 0.0) {
    EncodeFaultPolicy policy;
    policy.attempt_fails = [&faults](std::uint64_t seq,
                                     std::uint32_t attempt) {
      return faults.encode_attempt_fails(seq, attempt);
    };
    policy.max_attempts =
        std::max<std::uint32_t>(1, config.recovery.encode_max_attempts);
    policy.backoff_base_seconds = config.recovery.encode_backoff_base_seconds;
    policy.backoff_cap_seconds = config.recovery.encode_backoff_cap_seconds;
    queue.set_fault_policy(std::move(policy));
  }
  std::vector<ClientRuntime> clients(n_clients);
  std::deque<std::size_t> waiting_room;  // FIFO of kWaiting client indices
  std::vector<SrWorkItem> sr_work;
  std::vector<double> failover_latencies;

  // Serve counters are published once at the end of the run, from the
  // finished result; these two histograms are the only record of their
  // samples, so they are observed as the samples occur.
  MetricsRegistry& reg = MetricsRegistry::global();
  static constexpr double kDegradedBounds[] = {0.5, 1.0,  2.5,  5.0,
                                               10.0, 30.0, 60.0, 120.0};
  static constexpr double kBackoffBounds[] = {0.1, 0.25, 0.5, 1.0,
                                              2.0, 4.0,  8.0};
  Histogram& h_degraded =
      reg.histogram("serve/fleet/degraded_interval_seconds", kDegradedBounds);
  Histogram& h_backoff =
      reg.histogram("serve/encode/backoff_seconds", kBackoffBounds);

  FleetResult result;
  result.sessions.resize(n_clients);
  result.replica_of.assign(n_clients, kNoReplica);
  result.wait_seconds.assign(n_clients, 0.0);

  std::size_t remaining = n_clients;  // not yet done, rejected or failed

  // Wakeup index: exactly the wakeable clients, keyed by (t_next, client).
  // wake() and park() are the only writers of a client's state, so the
  // index never drifts from it. A NaN time would have no place in its order.
  WakeupIndex wakeups;
  const auto wake = [&](std::size_t i, ClientState state, double t) {
    if (std::isnan(t)) {
      throw std::invalid_argument("run_fleet: a client event time is NaN");
    }
    ClientRuntime& c = clients[i];
    if (wakeable(c.state)) wakeups.erase({c.t_next, i});
    wakeups.emplace(t, i);
    c.state = state;
    c.t_next = t;
  };
  // bind() and unbind() are the only writers of a client's replica and of
  // the replicas' session sets, so the two never disagree.
  const auto bind = [&](std::size_t i, std::size_t r) {
    clients[i].replica = r;
    replicas[r].sessions.insert(i);
  };
  const auto unbind = [&](std::size_t i) {
    ClientRuntime& c = clients[i];
    if (c.replica == kNoReplica) return;
    replicas[c.replica].sessions.erase(i);
    c.replica = kNoReplica;
  };
  // park() moves a client into a flow download or an end state; an end
  // state also frees the client's replica slot and leaves `remaining`.
  const auto park = [&](std::size_t i, ClientState state) {
    ClientRuntime& c = clients[i];
    if (wakeable(c.state)) wakeups.erase({c.t_next, i});
    c.state = state;
    if (state == ClientState::kDownloading) return;
    --remaining;
    unbind(i);
  };

  std::size_t expected_chunks = 0;
  for (std::size_t i = 0; i < n_clients; ++i) {
    wake(i, ClientState::kPending, config.clients[i].arrival_seconds);
    expected_chunks += config.clients[i].session.max_chunks + 2;
  }

  double now = 0.0;

  // One phase's work list: the clients in `state` whose t_next has come, in
  // client-index order, the timeline's tie-break. Handling one client never
  // changes another's state, so the list taken as the phase starts is the
  // set the phase handles; a client that comes due again within its own
  // phase waits for the next event.
  std::vector<std::size_t> due;
  const auto due_clients = [&](ClientState state) -> const auto& {
    due.clear();
    for (auto it = wakeups.begin(); it != wakeups.end() && it->first <= now;
         ++it) {
      if (clients[it->second].state == state) due.push_back(it->second);
    }
    std::sort(due.begin(), due.end());
    return due;
  };

  /// Recomputes a replica's effective degradation (schedule OR breaker) and
  /// books the exposure interval on a falling edge.
  const auto refresh_degraded = [&](std::size_t r, double when) {
    Replica& replica = replicas[r];
    const bool want = replica.sched_degraded || replica.breaker_open;
    if (want == replica.eff_degraded) return;
    if (want) {
      replica.degraded_since = when;
    } else {
      const double interval = when - replica.degraded_since;
      replica.stats.degraded_seconds += interval;
      h_degraded.observe(interval);
    }
    replica.eff_degraded = want;
  };

  /// Issues the network/encode request for client i's current plan at `now`.
  /// `fresh` marks a first issue (sets issued_at and samples SR work); a
  /// failover redo keeps the original issued_at so the crash + failover gap
  /// lands in the chunk's download time — and therefore in QoE stalls.
  const auto submit_request = [&](std::size_t i, bool fresh) {
    ClientRuntime& c = clients[i];
    const SessionConfig& session = c.engine->config();
    // Server-side encode latency; degraded replicas encode slower.
    double encode_seconds = config.encode_seconds_full * c.plan.density_ratio;
    if (replicas[c.replica].eff_degraded) {
      encode_seconds *= config.recovery.degraded_encode_factor;
    }
    const auto ci = std::uint32_t(i);
    const auto cr = std::int32_t(c.replica);
    log.record(now, FleetEventType::kChunkRequest, ci, cr,
               double(c.plan.index));
    // ViVo encodes are culled to the requesting viewer's predicted
    // viewport, so they are per-client artifacts: always encoded fresh,
    // never cached (and never poisoning the shared key space). They also
    // bypass the encode-fault axis, which models the shared encoder pool.
    double ready_at = now + encode_seconds;
    if (session.kind != SystemKind::kVivo) {
      const EncodeQueue::Decision decision = queue.request(
          plan_key(c, config.density_buckets),
          static_cast<std::size_t>(c.plan.bytes), now, encode_seconds, cr);
      ready_at = decision.ready_at;
      log.record(now,
                 decision.hit ? FleetEventType::kCacheHit
                              : FleetEventType::kCacheMiss,
                 ci, cr);
      if (decision.coalesced) {
        log.record(now, FleetEventType::kEncodeCoalesce, ci, cr,
                   decision.ready_at);
      } else if (!decision.hit) {
        log.record(now, FleetEventType::kEncodeStart, ci, cr,
                   encode_seconds);
      }
    } else {
      // Per-viewer artifact: by construction a miss with a fresh encode.
      log.record(now, FleetEventType::kCacheMiss, ci, cr);
      log.record(now, FleetEventType::kEncodeStart, ci, cr, encode_seconds);
    }
    if (fresh && config.measure_sr_stride != 0 &&
        c.plan.index % config.measure_sr_stride == 0 &&
        (session.kind == SystemKind::kVolutContinuous ||
         session.kind == SystemKind::kVolutDiscrete)) {
      sr_work.push_back({i, c.plan.index, c.plan.density_ratio,
                         session.video, session.chunk_seconds});
    }
    if (fresh) c.issued_at = now;
    c.flow_bytes = c.plan.bytes;
    c.startup_flow = false;
    wake(i, ClientState::kRequested, ready_at + config.rtt_seconds);
  };

  /// Converts an admitted session into a fault casualty. The partial
  /// session stays in the rollups; the slot (if still bound) frees.
  const auto fail_session = [&](std::size_t i, double when) {
    const std::size_t r = clients[i].replica;
    log.record(when, FleetEventType::kSessionFail, std::uint32_t(i),
               r == kNoReplica ? -1 : std::int32_t(r));
    park(i, ClientState::kFailed);
  };

  // Admission bookkeeping shared by immediate arrivals and waiting-room
  // promotions: binds client i to replica r, starting its session at `when`.
  // A client that already has an engine is a crashed-replica failover: the
  // session resumes where it left off instead of starting over.
  const auto admit_client = [&](std::size_t i, std::size_t r, double when) {
    ClientRuntime& c = clients[i];
    bind(i, r);
    result.replica_of[i] = r;
    ++replicas[r].stats.sessions_assigned;
    if (c.engine) {
      const double latency = when - c.failover_since;
      failover_latencies.push_back(latency);
      log.record(when, FleetEventType::kFailoverComplete, std::uint32_t(i),
                 std::int32_t(r), latency);
    } else {
      log.record(when, FleetEventType::kAdmit, std::uint32_t(i),
                 std::int32_t(r));
      c.engine = std::make_unique<SessionEngine>(config.clients[i].session,
                                                 config.clients[i].motion,
                                                 /*session_start=*/when);
      if (c.engine->done()) {  // degenerate zero-chunk config
        park(i, ClientState::kDone);
        return;
      }
      c.needs_startup = c.engine->has_startup_download();
      c.resume_at = when;
    }
    if (c.needs_startup) {
      c.needs_startup = false;
      wake(i, ClientState::kRequested, when + config.rtt_seconds);
      c.issued_at = when;
      c.flow_bytes = c.engine->startup_bytes();
      c.startup_flow = true;
    } else if (c.redo_chunk) {
      c.redo_chunk = false;
      submit_request(i, /*fresh=*/false);
    } else {
      wake(i, ClientState::kIdle, std::max(c.resume_at, when));
    }
  };

  /// Parks client i in the FIFO waiting room until a slot frees or its
  /// max_wait_seconds deadline passes.
  const auto enqueue_waiting = [&](std::size_t i) {
    clients[i].waiting_since = now;
    wake(i, ClientState::kWaiting, now + config.max_wait_seconds);
    waiting_room.push_back(i);
    log.record(now, FleetEventType::kWaitEnqueue, std::uint32_t(i));
    result.queue_depth_peak =
        std::max(result.queue_depth_peak, waiting_room.size());
  };

  /// Admits client i where route_arrival says, else queues it when the
  /// waiting room is enabled; false when neither (the caller's loss).
  const auto place = [&](std::size_t i) {
    const std::size_t r =
        route_arrival(replicas, config.max_sessions_per_replica);
    if (r != kNoReplica) {
      admit_client(i, r, now);
    } else if (config.max_wait_seconds > 0.0) {
      enqueue_waiting(i);
    } else {
      return false;
    }
    return true;
  };

  // FIFO admission: as long as a replica has a free slot, the head of the
  // waiting room takes it (least-loaded up replica, lowest index on ties).
  // Failed-over sessions queue behind fresh arrivals on equal terms; their
  // recorded wait_seconds stays the original admission wait.
  const auto drain_waiting_room = [&]() {
    while (!waiting_room.empty()) {
      const std::size_t r =
          route_arrival(replicas, config.max_sessions_per_replica);
      if (r == kNoReplica) break;
      const std::size_t i = waiting_room.front();
      waiting_room.pop_front();
      const double waited = now - clients[i].waiting_since;
      if (!clients[i].engine) result.wait_seconds[i] = waited;
      log.record(now, FleetEventType::kWaitPromote, std::uint32_t(i),
                 std::int32_t(r), waited);
      admit_client(i, r, now);
    }
  };

  /// Crash-window entry: unbind every session on r, abort its flows, and
  /// try to re-admit each session elsewhere (waiting room as fallback), in
  /// the session set's client-index order. `down` is set first, so no
  /// victim is re-admitted to r and the snapshot is exactly r's sessions.
  const auto crash_replica = [&](std::size_t r) {
    Replica& replica = replicas[r];
    replica.down = true;
    replica.down_since = now;
    ++replica.stats.crashes;
    log.record(now, FleetEventType::kReplicaDown, kNoSession, std::int32_t(r),
               config.faults.crash_restart_seconds);
    const std::vector<std::size_t> victims(replica.sessions.begin(),
                                           replica.sessions.end());
    for (const std::size_t i : victims) {
      ClientRuntime& c = clients[i];
      log.record(now, FleetEventType::kFailoverStart, std::uint32_t(i),
                 std::int32_t(r));
      c.failover_since = now;
      // A startup download or chunk in flight is re-issued once re-admitted.
      const bool in_flight = c.state != ClientState::kIdle;
      c.needs_startup = in_flight && c.startup_flow;
      c.redo_chunk = in_flight && !c.startup_flow;
      c.startup_flow = false;
      if (c.state == ClientState::kDownloading) {
        // The partial download is garbage to the client: discard and redo
        // the whole chunk on the new replica.
        const double discarded = replica.link.abort_flow(c.flow_id);
        replica.flow_owner.erase(c.flow_id);
        result.bytes_discarded += discarded;
        log.record(now, FleetEventType::kDownloadAbort, std::uint32_t(i),
                   std::int32_t(r), discarded);
      } else if (!in_flight) {  // resume the paused request once re-admitted
        c.resume_at = c.t_next;
      } else if (c.redo_chunk &&
                 c.engine->config().kind != SystemKind::kVivo) {
        // This waiter departs its coalesced encode; the encode itself keeps
        // running (single-flight work is not cancellable).
        queue.abandon(plan_key(c, config.density_buckets));
      }
      unbind(i);
      if (!place(i)) fail_session(i, now);
    }
  };

  /// Applies every fault-state flip due at `now` by diffing the schedule
  /// against tracked state — idempotent, so boundaries landing exactly on
  /// other events are safe. Runs right after time advances.
  const auto apply_fault_transitions = [&]() {
    for (std::size_t r = 0; r < n_replicas; ++r) {
      Replica& replica = replicas[r];
      const bool want_down = faults.replica_down(r, now);
      if (want_down && !replica.down) {
        crash_replica(r);
      } else if (!want_down && replica.down) {
        replica.down = false;
        replica.stats.down_seconds += now - replica.down_since;
        log.record(now, FleetEventType::kReplicaUp, kNoSession,
                   std::int32_t(r));
      }
      const double want_scale = faults.uplink_scale(r, now);
      if (want_scale != replica.link.rate_scale()) {
        replica.link.set_rate_scale(want_scale);
        log.record(now,
                   want_scale < 1.0 ? FleetEventType::kUplinkDegrade
                                    : FleetEventType::kUplinkRestore,
                   kNoSession, std::int32_t(r), want_scale);
      }
      const bool want_degraded = faults.replica_degraded(r, now);
      if (want_degraded != replica.sched_degraded) {
        replica.sched_degraded = want_degraded;
        log.record(now,
                   want_degraded ? FleetEventType::kReplicaDegraded
                                 : FleetEventType::kReplicaRecovered,
                   kNoSession, std::int32_t(r));
        refresh_degraded(r, now);
      }
      if (replica.breaker_open && replica.breaker_until <= now) {
        // Half-open reset: the failure streak starts over.
        replica.breaker_open = false;
        replica.breaker_until = kInf;
        replica.consec_encode_failures = 0;
        log.record(now, FleetEventType::kBreakerReset, kNoSession,
                   std::int32_t(r));
        refresh_degraded(r, now);
      }
    }
  };

  /// Circuit breaker: consecutive *attributed* encode failures mark the
  /// starter's replica degraded until the breaker resets. Attribution is by
  /// the replica of the request that started the encode — the fleet-level
  /// approximation of "this replica's encoder pool is sick".
  const auto apply_encode_outcomes =
      [&](const std::vector<EncodeQueue::Completion>& outcomes) {
        const std::uint32_t threshold =
            config.recovery.breaker_failure_threshold;
        for (const EncodeQueue::Completion& done : outcomes) {
          if (!done.success && !done.terminal) {
            h_backoff.observe(done.backoff_seconds);
          }
          if (done.replica < 0 ||
              std::size_t(done.replica) >= n_replicas) {
            continue;
          }
          const auto r = std::size_t(done.replica);
          Replica& replica = replicas[r];
          if (done.success) {
            replica.consec_encode_failures = 0;
            continue;
          }
          if (threshold == 0) continue;
          if (++replica.consec_encode_failures >= threshold &&
              !replica.breaker_open) {
            replica.breaker_open = true;
            replica.breaker_until =
                done.time + config.recovery.breaker_reset_seconds;
            ++replica.stats.breaker_trips;
            log.record(done.time, FleetEventType::kBreakerTrip, kNoSession,
                       std::int32_t(r),
                       double(replica.consec_encode_failures));
            refresh_degraded(r, done.time);
          }
        }
      };

  // ~3 events per chunk (request, flow start, completion); anything far past
  // that means the timeline stopped making progress. Faults add recovery
  // round-trips (retries, failovers, boundary wakeups), so an armed
  // schedule gets proportional headroom.
  std::size_t max_events = 1000 + 16 * expected_chunks;
  if (faults_armed) {
    max_events += 1000 + 16 * expected_chunks +
                  64 * faults.transition_count();
  }
  for (std::size_t iter = 0; remaining > 0 && iter < max_events; ++iter) {
    // Next event: a client transition (arrival, request release, waiting-
    // room timeout), an encode completion, the earliest flow completion, or
    // a fault boundary (window edge / breaker expiry).
    double t_event = wakeups.empty() ? kInf : wakeups.begin()->first;
    t_event = std::min(t_event, queue.next_ready());
    t_event = std::min(t_event, faults.next_transition_after(now));
    for (const Replica& replica : replicas) {
      t_event = std::min(t_event, replica.link.next_completion_time(now));
      if (replica.breaker_open) {
        t_event = std::min(t_event, replica.breaker_until);
      }
    }
    if (!(t_event < kInf)) break;  // stuck (e.g. an all-zero uplink trace)

    // 1. Drain every uplink to the event time; settle completed chunks.
    for (std::size_t r = 0; r < n_replicas; ++r) {
      Replica& replica = replicas[r];
      for (const SharedLink::Completion& done :
           replica.link.advance(now, t_event)) {
        const auto owner = replica.flow_owner.find(done.id);
        if (owner == replica.flow_owner.end()) {
          throw std::logic_error(
              "run_fleet: uplink completed a flow no client owns");
        }
        const std::size_t i = owner->second;
        replica.flow_owner.erase(owner);
        ClientRuntime& c = clients[i];
        log.record(done.time, FleetEventType::kDownloadFinish,
                   std::uint32_t(i), std::int32_t(r), c.flow_bytes);
        if (c.startup_flow) {
          c.startup_flow = false;
          wake(i, ClientState::kIdle, done.time);
          continue;
        }
        const double next_request =
            c.engine->complete_chunk(c.plan, c.issued_at, done.time);
        // Timeline milestones derived from the chunk the engine just
        // settled: rebuffer interval, quality switch, session end.
        if (const ChunkRecord* rec = c.engine->last_chunk()) {
          if (rec->stall_seconds > 0.0) {
            log.record(done.time, FleetEventType::kRebufferStart,
                       std::uint32_t(i), std::int32_t(r),
                       rec->stall_seconds);
            log.record(done.time + rec->stall_seconds,
                       FleetEventType::kRebufferEnd, std::uint32_t(i),
                       std::int32_t(r));
          }
          if (c.engine->quality_switches() > c.switches_seen) {
            c.switches_seen = c.engine->quality_switches();
            log.record(done.time, FleetEventType::kQualitySwitch,
                       std::uint32_t(i), std::int32_t(r), rec->quality);
          }
        }
        if (c.engine->done()) {
          log.record(done.time, FleetEventType::kSessionDone,
                     std::uint32_t(i), std::int32_t(r));
          park(i, ClientState::kDone);
        } else {
          wake(i, ClientState::kIdle, next_request);
        }
      }
    }
    now = t_event;

    // 2. Settle finished encode attempts: successes become cache-resident
    // now (requests from here on see hits), failures reschedule or turn
    // terminal — and feed the per-replica circuit breaker.
    const std::vector<EncodeQueue::Completion> encode_outcomes =
        queue.complete_until(now);
    if (faults_armed) apply_encode_outcomes(encode_outcomes);

    // 2b. Fault boundaries due now: crash/restart replicas (failing their
    // sessions over), re-rate uplinks, open/close degradation windows and
    // expired breakers. Runs before releases/arrivals so a replica that
    // crashes at t never accepts work stamped t.
    if (faults_armed) apply_fault_transitions();

    // 3. Requests whose RTT + encode latency elapsed become uplink flows.
    // Under faults the release re-checks the artifact: a retrying encode
    // pushes the release to its new completion time, a terminally failed
    // one kills the session. A finished encode is served whether or not it
    // is still resident (evicted, or too large to cache), as without faults.
    for (const std::size_t i : due_clients(ClientState::kRequested)) {
      ClientRuntime& c = clients[i];
      if (faults_armed && !c.startup_flow &&
          c.engine->config().kind != SystemKind::kVivo) {
        const EncodeCacheKey key = plan_key(c, config.density_buckets);
        const EncodeQueue::KeyState state = queue.key_state(key);
        if (state == EncodeQueue::KeyState::kInFlight) {
          wake(i, ClientState::kRequested,
               queue.in_flight_ready_at(key) + config.rtt_seconds);
          continue;
        }
        if (state == EncodeQueue::KeyState::kFailed) {
          fail_session(i, now);
          continue;
        }
      }
      Replica& replica = replicas[c.replica];
      const BandwidthTrace& downlink = config.clients[i].downlink;
      const std::uint64_t id = replica.link.start_flow(
          c.flow_bytes, downlink.empty() ? nullptr : &downlink);
      replica.flow_owner[id] = i;
      c.flow_id = id;
      log.record(now, FleetEventType::kDownloadStart, std::uint32_t(i),
                 std::int32_t(c.replica), c.flow_bytes);
      park(i, ClientState::kDownloading);
      replica.stats.peak_concurrent_flows = std::max(
          replica.stats.peak_concurrent_flows, replica.link.active_flows());
    }

    // 4. Sessions that completed in step 1 freed admission slots: promote
    // waiting-room clients before new arrivals are considered (FIFO).
    drain_waiting_room();

    // 5. Arrivals: admission control + least-loaded routing. When every
    // replica is at the cap the arrival queues (or, with the waiting room
    // disabled, is rejected on the spot).
    for (const std::size_t i : due_clients(ClientState::kPending)) {
      if (place(i)) continue;
      park(i, ClientState::kRejected);
      log.record(now, FleetEventType::kReject, std::uint32_t(i));
    }

    // 6. A degenerate (zero-chunk) arrival in step 5 may have freed its slot
    // right back; give it to the waiting room before timeouts fire.
    drain_waiting_room();

    // 7. Waiting-room timeouts. Fresh arrivals convert to rejections; a
    // failed-over session that cannot find capacity within its deadline is
    // a session failure. Runs after the admission drains, so an admission
    // at exactly the deadline wins.
    for (const std::size_t i : due_clients(ClientState::kWaiting)) {
      std::erase(waiting_room, i);
      const double waited = now - clients[i].waiting_since;
      log.record(now, FleetEventType::kWaitTimeout, std::uint32_t(i),
                 /*replica=*/-1, waited);
      if (clients[i].engine) {
        fail_session(i, now);
        continue;
      }
      park(i, ClientState::kRejected);
      result.wait_seconds[i] = waited;
      ++result.timed_out;
    }

    // 8. Idle clients at their request time plan the next chunk: ABR against
    // the fair share they would get, then the single-flight encode queue
    // decides when the artifact is ready — a resident artifact releases
    // after one RTT, a fresh miss starts an encode, and a concurrent miss of
    // an in-flight key coalesces onto that encode and waits for it.
    for (const std::size_t i : due_clients(ClientState::kIdle)) {
      ClientRuntime& c = clients[i];
      const Replica& replica = replicas[c.replica];
      c.plan = c.engine->plan_chunk(now, replica.link.share_mbps(now));
      const SessionConfig& session = c.engine->config();
      // Graceful degradation: on a degraded replica, trade one density
      // bucket for not paying the slowed-down encode at full freight.
      // SR-capable ladders only — raw has no ladder to walk and ViVo plans
      // per-viewport.
      if (faults_armed && config.recovery.degrade_density_when_degraded &&
          replica.eff_degraded &&
          (session.kind == SystemKind::kVolutContinuous ||
           session.kind == SystemKind::kVolutDiscrete ||
           session.kind == SystemKind::kYuzuSr)) {
        const std::uint32_t bucket =
            density_bucket(c.plan.density_ratio, config.density_buckets);
        if (bucket > 1) {
          const double ratio =
              double(bucket - 1) / double(config.density_buckets);
          c.plan = c.engine->sr_plan(c.plan.index, ratio);
          log.record(now, FleetEventType::kDensityDownshift, std::uint32_t(i),
                     std::int32_t(c.replica), ratio);
        }
      }
      submit_request(i, /*fresh=*/true);
    }
#ifndef NDEBUG
    check_fleet_invariants(clients, replicas, waiting_room, remaining,
                           wakeups);
#endif
  }
  result.sim_seconds = now;
  result.unfinished_sessions = remaining;
  result.completed = remaining == 0;

  // ------------------------------------------------------------- rollups
  // FleetResult is built here, once, from the stores that own each fact:
  // the replica records and their links, the encode queue and the log.
  for (const Replica& replica : replicas) {
    ReplicaStats& stats = result.replicas.emplace_back(replica.stats);
    // Close out fault exposure still open when the timeline ended.
    if (replica.down) stats.down_seconds += now - replica.down_since;
    if (replica.eff_degraded) {
      stats.degraded_seconds += now - replica.degraded_since;
    }
    stats.flows_started = replica.link.flows_started();
    stats.flows_completed = replica.link.flows_completed();
    stats.flows_aborted = replica.link.flows_aborted();
    stats.bytes_completed = replica.link.bytes_completed();
    stats.bits_drained = replica.link.bits_drained();
    stats.uplink_trace_wraps = replica.link.trace().wrap_count(now);
  }
  std::vector<double> qoes, norms, stalls, waits;
  for (std::size_t i = 0; i < n_clients; ++i) {
    if (!clients[i].engine) continue;
    waits.push_back(result.wait_seconds[i]);
    result.sessions[i] = clients[i].engine->finish();
    const SessionResult& s = result.sessions[i];
    qoes.push_back(s.qoe);
    norms.push_back(s.normalized_qoe());
    stalls.push_back(s.stall_seconds);
    result.total_bytes += s.total_bytes;
    result.total_stall_seconds += s.stall_seconds;
    result.played_seconds += double(s.chunks.size()) *
                             config.clients[i].session.chunk_seconds;
  }
  result.qoe = summarize(qoes);
  result.normalized_qoe = summarize(norms);
  result.stall_seconds = summarize(stalls);
  const double watched = result.total_stall_seconds + result.played_seconds;
  result.stall_rate = watched > 0.0 ? result.total_stall_seconds / watched
                                    : 0.0;
  result.wait_time = summarize(waits);
  result.failover_time = summarize(failover_latencies);
  result.cache = queue.cache_stats();
  result.cache_shards.reserve(queue.shard_count());
  for (std::size_t s = 0; s < queue.shard_count(); ++s) {
    result.cache_shards.push_back(queue.shard(s).stats());
  }
  result.encode_queue = queue.stats();
  using T = FleetEventType;
  result.admitted = log.type_count(T::kAdmit);
  // A failed-over session that times out also records kWaitTimeout, so the
  // loop counts timed-out arrivals itself.
  result.rejected = log.type_count(T::kReject) + result.timed_out;
  result.failovers = log.type_count(T::kFailoverComplete);
  result.failed_sessions = log.type_count(T::kSessionFail);
  result.downloads_aborted = log.type_count(T::kDownloadAbort);
  result.degraded_chunks = log.type_count(T::kDensityDownshift);
  result.timeline_events = log.recorded();

  queue.set_event_log(nullptr);  // log is about to move into the result
  result.events = std::move(log);

  publish_serve_metrics(result, failover_latencies);
  measure_sr_samples(sr_work, config.sr_lut, result.sr_samples, pool);
  return result;
}

std::vector<FleetClientConfig> make_mixed_fleet(
    std::size_t n, double arrival_spacing_seconds, std::size_t max_chunks,
    double video_scale) {
  static constexpr VideoId kVideos[] = {VideoId::kDress, VideoId::kLoot,
                                        VideoId::kHaggle, VideoId::kLab};
  static constexpr SystemKind kKinds[] = {
      SystemKind::kVolutContinuous, SystemKind::kVolutDiscrete,
      SystemKind::kYuzuSr, SystemKind::kRaw};
  std::vector<FleetClientConfig> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    FleetClientConfig& client = out[i];
    client.arrival_seconds = double(i) * arrival_spacing_seconds;
    client.session.kind = kKinds[i % 4];
    // Groups of four neighbors share one video (same id, scale and content
    // seed), which is what lets the encode cache deduplicate their fetches.
    VideoSpec spec = VideoSpec::by_id(kVideos[(i / 4) % 4], video_scale);
    spec.frame_count = std::max<std::size_t>(
        spec.frame_count, max_chunks * std::size_t(spec.fps + 0.5));
    spec.loops = 1;
    client.session.video = spec;
    client.session.max_chunks = max_chunks;
  }
  return out;
}

}  // namespace volut
