#include "src/serve/encode_cache.h"

#include <algorithm>
#include <cmath>

namespace volut {

std::uint32_t density_bucket(double density_ratio, std::uint32_t buckets) {
  buckets = std::max<std::uint32_t>(1, buckets);
  // NaN makes std::clamp's comparisons unspecified; pin it to the lowest
  // bucket before clamping (±inf order fine and clamp to the edge buckets).
  if (std::isnan(density_ratio)) return 1;
  const double r = std::clamp(density_ratio, 0.0, 1.0);
  const auto b = std::uint32_t(std::ceil(r * double(buckets)));
  return std::clamp<std::uint32_t>(b, 1, buckets);
}

bool EncodeCache::lookup(const EncodeCacheKey& key) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    return true;
  }
  ++stats_.misses;
  return false;
}

std::size_t EncodeCache::insert(const EncodeCacheKey& key, std::size_t bytes) {
  if (index_.count(key) != 0) return 0;
  if (bytes > budget_bytes_) {
    ++stats_.oversized_rejects;
    return 0;
  }
  std::size_t evicted = 0;
  while (bytes_cached_ + bytes > budget_bytes_ && !lru_.empty()) {
    const auto& [old_key, old_bytes] = lru_.back();
    bytes_cached_ -= old_bytes;
    index_.erase(old_key);
    lru_.pop_back();
    ++stats_.evictions;
    ++evicted;
  }
  lru_.emplace_front(key, bytes);
  index_.emplace(key, lru_.begin());
  bytes_cached_ += bytes;
  ++stats_.insertions;
  return evicted;
}

}  // namespace volut
