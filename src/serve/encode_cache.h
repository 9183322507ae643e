// Shared chunk-encode cache for the serving fleet.
//
// Encoding a chunk at a requested density is the expensive server-side step
// (materialize + downsample + quantize); when many sessions watch the same
// videos their ABR controllers keep asking for the same (video, chunk,
// density) artifacts. The fleet therefore shares one LRU cache across every
// replica, keyed by the encode identity with the continuous density ratio
// bucketized to a small ladder — the same discipline CDN edge caches use for
// ABR renditions. A byte budget bounds resident encodes; eviction is strict
// LRU and every hit/miss/eviction is counted in stats(), the only store of
// those counts (run_fleet publishes each run's totals to the metrics
// registry at its end).
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>

namespace volut {

/// Identity of one encoded chunk artifact. `points_per_frame` and
/// `content_seed` disambiguate the same logical video served at different
/// synthetic scales or generator seeds.
struct EncodeCacheKey {
  std::uint32_t video = 0;
  std::uint32_t points_per_frame = 0;
  std::uint32_t content_seed = 0;
  std::uint32_t chunk = 0;
  std::uint32_t density_bucket = 0;

  bool operator==(const EncodeCacheKey&) const = default;
};

/// Maps a continuous density ratio in (0, 1] onto 1..buckets (monotone;
/// requests in the same bucket share one cached encode). Non-finite input is
/// pinned deterministically: NaN and anything <= 0 land in bucket 1, +inf in
/// the top bucket — a corrupt ratio must not produce an unspecified key.
std::uint32_t density_bucket(double density_ratio, std::uint32_t buckets);

/// FNV-1a over the key fields; shared by the cache index and the
/// consistent-hash shard ring (serve/encode_queue.h).
struct EncodeCacheKeyHash {
  std::size_t operator()(const EncodeCacheKey& k) const {
    std::uint64_t h = 1469598103934665603ull;
    for (std::uint64_t v : {std::uint64_t(k.video),
                            std::uint64_t(k.points_per_frame),
                            std::uint64_t(k.content_seed),
                            std::uint64_t(k.chunk),
                            std::uint64_t(k.density_bucket)}) {
      h = (h ^ v) * 1099511628211ull;
    }
    return std::size_t(h);
  }
};

struct EncodeCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t insertions = 0;
  /// Misses whose artifact exceeded the whole budget and was never admitted.
  std::uint64_t oversized_rejects = 0;

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : double(hits) / double(total);
  }
};

class EncodeCache {
 public:
  explicit EncodeCache(std::size_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  std::size_t budget_bytes() const { return budget_bytes_; }
  std::size_t bytes_cached() const { return bytes_cached_; }
  std::size_t entry_count() const { return index_.size(); }
  const EncodeCacheStats& stats() const { return stats_; }

  /// Residency probe at request time: counts a hit (refreshing LRU order) or
  /// a miss, but never inserts — on a miss the caller is expected to encode
  /// and insert() when the encode completes (EncodeQueue does), so an
  /// artifact is never resident before it exists.
  bool lookup(const EncodeCacheKey& key);

  /// Admits a finished encode of `bytes` bytes, evicting LRU entries to fit.
  /// Artifacts larger than the whole budget count an oversized_reject and
  /// are dropped; keys already resident are left untouched. Returns how many
  /// entries were evicted to make room (0 on reject/already-resident).
  std::size_t insert(const EncodeCacheKey& key, std::size_t bytes);

  /// Residency probe without touching counters or LRU order.
  bool contains(const EncodeCacheKey& key) const {
    return index_.count(key) != 0;
  }

 private:
  using LruList = std::list<std::pair<EncodeCacheKey, std::size_t>>;

  // single-threaded: run_fleet — every mutation happens on the fleet's
  // event loop (or a single-session caller), so this state is deliberately
  // unguarded; see core/thread_annotations.h for the convention.
  std::size_t budget_bytes_;
  std::size_t bytes_cached_ = 0;
  LruList lru_;  // front = most recently used
  std::unordered_map<EncodeCacheKey, LruList::iterator, EncodeCacheKeyHash>
      index_;
  EncodeCacheStats stats_;
};

}  // namespace volut
