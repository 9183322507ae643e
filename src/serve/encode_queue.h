// Single-flight encode queues over sharded encode caches.
//
// EncodeCache alone answers "is this artifact resident?"; it cannot say
// "someone is already encoding it". The fleet used to insert at miss time,
// so a second viewer requesting the same (video, chunk, density-bucket)
// artifact while the first encode was still in flight saw a phantom hit and
// paid zero encode delay — the artifact was served before it existed.
//
// EncodeQueue is the request-coalescing discipline production serving stacks
// use instead: the first miss of a key starts an encode that completes at
// now + encode_seconds; every concurrent requester of the same key attaches
// to that in-flight encode as a waiter and is released only at its
// completion time; the cache insertion happens at completion, never at
// request. Zero-latency encodes degenerate to the old synchronous
// lookup-then-insert path, which is what keeps run_session parity exact.
//
// The cache side is sharded: keys map onto one of N EncodeCache shards
// through a consistent-hash ring (so a fleet can pin one shard per replica
// and observe budgets/hit rates per replica, and resizing the pool only
// remaps ~1/N of the key space). One shard reproduces the old fleet-wide
// cache bit for bit.
//
// Fault injection (serve/faults.h) plugs in as an EncodeFaultPolicy: each
// attempt's completion consults a pure per-(encode, attempt) failure draw;
// failed attempts re-run under capped exponential backoff until
// max_attempts, after which the key is terminally failed and every waiter
// converts to a session error. Waiter counts make orphaned encodes
// observable: when every coalesced requester departs (abandon()) before
// completion, the finished artifact still lands in its shard but the
// completion is counted as abandoned.
//
// Everything is driven by the caller's event loop and absolute clock: the
// queue never reads wall time, so it inherits the fleet's determinism.
// stats() and each shard's stats() are the only store of the queue's
// counts; run_fleet publishes each run's totals to the metrics registry at
// its end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/serve/encode_cache.h"

namespace volut {

class EventLog;

/// Consistent-hash ring: `shards` shards, each projected onto the ring at
/// 64 pseudo-random points (vnodes); a key hashes to the first vnode
/// clockwise from it. Growing from N to N+1 shards only moves keys that land
/// on the new shard's vnodes (~1/(N+1) of the space).
class HashRing {
 public:
  explicit HashRing(std::size_t shards);

  std::size_t shard_count() const { return shards_; }
  std::size_t shard_of(std::uint64_t key_hash) const;

 private:
  std::size_t shards_;
  /// (ring position, shard), sorted by position.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
};

struct EncodeQueueStats {
  /// Misses that started a fresh encode (one server-side encode each).
  std::uint64_t encode_starts = 0;
  /// Requests that attached to an already in-flight encode of their key —
  /// the requests that were phantom hits before single-flight.
  std::uint64_t coalesced_joins = 0;
  /// Encodes completed and admitted to (or rejected by) their cache shard.
  std::uint64_t completions = 0;
  std::size_t peak_in_flight = 0;
  /// Encode attempts that failed (fault policy verdicts).
  std::uint64_t failures = 0;
  /// Failed attempts that rescheduled under backoff.
  std::uint64_t retries = 0;
  /// Keys whose encodes exhausted max_attempts — every waiter converts to a
  /// session error.
  std::uint64_t exhausted = 0;
  /// Encodes that completed after every coalesced requester had departed
  /// (abandon()): the artifact still lands in its shard — the work was
  /// already paid for and the next requester hits — but nobody who asked
  /// for it was still around.
  std::uint64_t abandoned = 0;
};

/// Deterministic encode-failure policy. `attempt_fails(seq, attempt)` is
/// consulted at each attempt's completion time with the encode's start
/// sequence number and 1-based attempt index; it must be a pure function
/// (FaultSchedule::encode_attempt_fails is the intended source). A null
/// predicate never fails — and keeps the zero-latency synchronous encode
/// path (run_session parity) intact.
struct EncodeFaultPolicy {
  std::function<bool(std::uint64_t, std::uint32_t)> attempt_fails;
  std::uint32_t max_attempts = 4;
  double backoff_base_seconds = 0.25;
  double backoff_cap_seconds = 4.0;
};

class EncodeQueue {
 public:
  /// `shards` caches (>= 1) splitting `total_budget_bytes` evenly.
  EncodeQueue(std::size_t shards, std::size_t total_budget_bytes);

  struct Decision {
    /// Resident in its shard at request time.
    bool hit = false;
    /// Joined an in-flight encode started by an earlier request.
    bool coalesced = false;
    /// Absolute time the artifact is available server-side: the request
    /// time for hits (and zero-latency encodes), the encode completion time
    /// otherwise. Never in the past.
    double ready_at = 0.0;
  };

  /// One artifact request at absolute time `now`. The caller must have
  /// drained completions up to `now` first (complete_until), so residency
  /// reflects every encode that finished by `now`. A fresh encode completes
  /// at now + encode_seconds; encode_seconds <= 0 encodes synchronously
  /// (unless a fault policy is armed, which routes every encode through the
  /// schedule so its attempts can fail). `replica_hint` attributes the
  /// encode to the requester's replica for circuit-breaker accounting (-1 =
  /// unattributed). A request for a terminally-failed key clears the
  /// failure and starts a fresh encode.
  Decision request(const EncodeCacheKey& key, std::size_t bytes, double now,
                   double encode_seconds, std::int32_t replica_hint = -1);

  /// Earliest in-flight encode completion, +inf when none — an event source
  /// for the caller's timeline.
  double next_ready() const;

  /// Outcome of one encode attempt settled by complete_until — the feed for
  /// the fleet's circuit breaker and failure accounting.
  struct Completion {
    EncodeCacheKey key;
    double time = 0.0;
    bool success = true;
    /// Failed with attempts exhausted: the key is now terminally failed
    /// (key_state kFailed) until a fresh request clears it.
    bool terminal = false;
    std::uint32_t attempt = 1;
    /// Replica hint of the request that started the encode (-1 none).
    std::int32_t replica = -1;
    /// Failed and not terminal: the backoff waited before the next attempt.
    double backoff_seconds = 0.0;
  };

  /// Settles every in-flight encode attempt with ready_at <= time in
  /// (ready_at, start order) order: successes insert into their shards;
  /// failures reschedule under capped exponential backoff until
  /// max_attempts, then turn terminal. Returns the settled attempts.
  std::vector<Completion> complete_until(double time);

  /// One coalesced requester of `key` departed (session failed over or
  /// died) before the encode completed. The encode keeps running — single-
  /// flight work is not cancellable — but a completion nobody waits for is
  /// counted as abandoned. No-op when the key is not in flight.
  void abandon(const EncodeCacheKey& key);

  enum class KeyState {
    kResident,  // in its cache shard now
    kInFlight,  // encode scheduled; in_flight_ready_at() says when
    kFailed,    // terminally failed; next request re-encodes from scratch
    kAbsent,    // never requested, or evicted
  };
  /// Residency probe without hit/miss accounting (recovery paths must not
  /// perturb cache stats).
  KeyState key_state(const EncodeCacheKey& key) const;
  /// Current completion time of an in-flight key (+inf when not in flight);
  /// moves later when attempts fail and reschedule.
  double in_flight_ready_at(const EncodeCacheKey& key) const;

  /// Arms deterministic encode failures + retry/backoff (see
  /// EncodeFaultPolicy). Call before the first request.
  void set_fault_policy(EncodeFaultPolicy policy);

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t shard_of(const EncodeCacheKey& key) const {
    return ring_.shard_of(EncodeCacheKeyHash{}(key));
  }
  const EncodeCache& shard(std::size_t s) const { return shards_[s]; }
  std::size_t in_flight() const { return in_flight_.size(); }

  const EncodeQueueStats& stats() const { return stats_; }
  /// Hit/miss/eviction counters aggregated over every shard.
  EncodeCacheStats cache_stats() const;

  /// Emits kEncodeComplete (and kCacheEvict) fleet events as encodes land in
  /// their shards. The log must outlive the queue; null detaches.
  void set_event_log(EventLog* log) { event_log_ = log; }

 private:
  struct InFlight {
    double ready_at = 0.0;
    std::uint64_t seq = 0;  // schedule key; fresh per attempt
    /// Start sequence of attempt 1 — the encode's stable identity for the
    /// fault policy's pure per-(seq, attempt) failure draws.
    std::uint64_t seq0 = 0;
    std::size_t bytes = 0;
    double encode_seconds = 0.0;  // per-attempt re-run cost
    std::uint32_t attempt = 1;
    /// Coalesced requesters still waiting (starter included); abandon()
    /// decrements.
    std::size_t waiters = 0;
    std::int32_t replica = -1;  // starter's replica hint
  };

  // single-threaded: run_fleet — requests, completions, and abandons are
  // all issued from the fleet's event loop in timeline order, so this
  // state is deliberately unguarded; see core/thread_annotations.h.
  std::vector<EncodeCache> shards_;
  HashRing ring_;
  std::unordered_map<EncodeCacheKey, InFlight, EncodeCacheKeyHash> in_flight_;
  /// (ready_at, seq) -> key; ordered completion schedule.
  std::map<std::pair<double, std::uint64_t>, EncodeCacheKey> schedule_;
  /// Keys whose encodes exhausted max_attempts -> give-up time. Sticky
  /// until a fresh request retries the key from scratch.
  std::unordered_map<EncodeCacheKey, double, EncodeCacheKeyHash> failed_;
  std::uint64_t seq_ = 0;
  EncodeQueueStats stats_;
  EncodeFaultPolicy fault_policy_;

  /// Inserts a completed encode into its shard, counting the completion and
  /// emitting the completion/eviction events — shared by complete_until and
  /// the synchronous zero-latency path.
  void finish_encode(const EncodeCacheKey& key, std::size_t bytes,
                     double time);

  EventLog* event_log_ = nullptr;
};

}  // namespace volut
