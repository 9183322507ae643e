#include "src/spatial/knn.h"

#include <array>

#include "src/obs/metrics.h"
#include "src/platform/thread_pool.h"
#include "src/spatial/kdtree.h"
#include "src/spatial/knn_simd.h"

namespace volut {

namespace {
/// Stack-buffer cap shared by merge_and_prune_into and its vector wrapper;
/// also the hard ceiling on how many merged neighbors one call can return.
constexpr std::size_t kMaxCand = 64;

/// Registry handles behind ~KnnTally, resolved once.
struct KnnCounters {
  Counter* queries;
  Counter* leaf_scans[3];  // indexed by SimdLevel
  Counter* points_scanned;
  Counter* heap_pushes;
  Counter* octree_cell_queries;
  Counter* octree_spills;
};

const KnnCounters& knn_counters() {
  static const KnnCounters counters = [] {
    MetricsRegistry& reg = MetricsRegistry::global();
    KnnCounters c;
    c.queries = &reg.counter("spatial/knn_queries");
    c.leaf_scans[0] = &reg.counter("spatial/leaf_scans/scalar");
    c.leaf_scans[1] = &reg.counter("spatial/leaf_scans/sse2");
    c.leaf_scans[2] = &reg.counter("spatial/leaf_scans/avx2");
    c.points_scanned = &reg.counter("spatial/points_scanned");
    c.heap_pushes = &reg.counter("spatial/heap_pushes");
    // Queries answered by the octree's own-cell fast path vs. ones that
    // spilled into the multi-cell search: the ratio the two-layer design
    // bets on.
    c.octree_cell_queries = &reg.counter("spatial/octree_cell_queries");
    c.octree_spills = &reg.counter("spatial/octree_spills");
    return c;
  }();
  return counters;
}

void add_nonzero(Counter* counter, std::uint64_t n) {
  if (n != 0) counter->add(n);
}
}  // namespace

KnnTally::~KnnTally() {
  const KnnCounters& c = knn_counters();
  add_nonzero(c.queries, queries);
  // The level is read at flush time, not cached: tests flip levels
  // in-process via simd_force_level, which happens only between batches.
  add_nonzero(c.leaf_scans[static_cast<int>(simd_active_level())],
              leaf_scans);
  add_nonzero(c.points_scanned, points_scanned);
  add_nonzero(c.heap_pushes, heap_pushes);
  add_nonzero(c.octree_cell_queries, octree_cell_queries);
  add_nonzero(c.octree_spills, octree_spills);
}

std::size_t merge_and_prune_into(std::span<const Neighbor> a,
                                 std::span<const Neighbor> b,
                                 const Vec3f& query,
                                 std::span<const Vec3f> positions,
                                 std::size_t k, std::span<Neighbor> out) {
  // Candidate lists are tiny (<= 2*(k+1) entries on the hot path); a fixed
  // stack buffer with insertion sort avoids any heap allocation per call —
  // this runs once per interpolated point.
  std::array<Neighbor, kMaxCand> best;
  std::array<std::size_t, kMaxCand> seen;
  std::size_t best_n = 0;
  std::size_t seen_n = 0;
  const std::size_t cap = std::min({k, kMaxCand, out.size()});
  if (cap == 0) return 0;

  auto consider = [&](std::size_t index) {
    for (std::size_t s = 0; s < seen_n; ++s) {
      if (seen[s] == index) return;  // deduplicate shared candidates
    }
    if (seen_n < kMaxCand) {
      seen[seen_n++] = index;
    } else {
      // `seen` is saturated, so this candidate cannot be recorded; if a
      // duplicate of it arrives later, the seen-scan above won't catch it.
      // Every kept candidate is either in `seen` or findable in `best`, so
      // dedup against `best` directly (unkept duplicates are harmless —
      // they re-lose the same comparison).
      for (std::size_t s = 0; s < best_n; ++s) {
        if (best[s].index == index) return;
      }
    }
    const Neighbor cand{index, distance2(query, positions[index])};
    // Ordering (distance, then index) matches Neighbor::operator< so ties —
    // e.g. the two parents of a midpoint, exactly equidistant — resolve the
    // same way as an exact kNN query.
    if (best_n == cap && !(cand < best[best_n - 1])) return;
    std::size_t pos = best_n < cap ? best_n : cap - 1;
    if (best_n < cap) ++best_n;
    while (pos > 0 && cand < best[pos - 1]) {
      best[pos] = best[pos - 1];
      --pos;
    }
    best[pos] = cand;
  };

  for (const Neighbor& n : a) consider(n.index);
  for (const Neighbor& n : b) consider(n.index);

  std::copy(best.begin(), best.begin() + best_n, out.begin());
  return best_n;
}

std::vector<Neighbor> merge_and_prune(std::span<const Neighbor> a,
                                      std::span<const Neighbor> b,
                                      const Vec3f& query,
                                      std::span<const Vec3f> positions,
                                      std::size_t k) {
  std::vector<Neighbor> out(std::min(k, kMaxCand));
  out.resize(merge_and_prune_into(a, b, query, positions, k, out));
  return out;
}

void batch_knn_kdtree(const KdTree& tree, std::span<const Vec3f> queries,
                      std::size_t k, NeighborBuffer& out, ThreadPool* pool,
                      bool exclude_self) {
  out.resize(queries.size(), k);
  if (queries.empty() || k == 0 || tree.empty()) return;
  run_chunked(
      pool, queries.size(), /*chunk=*/256,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        KnnTally tally;
        for (std::size_t i = begin; i < end; ++i) {
          // The query's arena slot doubles as the heap's backing storage:
          // the search, the sort and the result share one allocation-free
          // buffer.
          NeighborHeap heap(out.slot(i));
          tree.knn_into(queries[i], heap,
                        exclude_self ? static_cast<std::uint32_t>(i)
                                     : KdTree::kNoExclude,
                        &tally);
          out.set_count(i, heap.sort_ascending());
        }
      });
}

NeighborBuffer batch_knn_kdtree(const KdTree& tree,
                                std::span<const Vec3f> queries, std::size_t k,
                                ThreadPool* pool, bool exclude_self) {
  NeighborBuffer out;
  batch_knn_kdtree(tree, queries, k, out, pool, exclude_self);
  return out;
}

}  // namespace volut
