#include "src/sr/interpolation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/core/rng.h"
#include "src/obs/trace.h"

namespace volut {

namespace {

/// Fixed stage-2 chunk size: parallel_chunks boundaries depend only on the
/// source count, never the worker count, so the schedule below is
/// bit-identical at any parallelism.
constexpr std::size_t kStage2Chunk = 1024;

// ---------------------------------------------------------------------------
// Stage 2 schedule.
//
// The serial predecessor walked sources round-robin, each visit consuming the
// next entry of a per-source shuffled partner list, until `target_new`
// midpoints existed. That order is reproduced here as a closed-form
// schedule: pass p emits one midpoint for every source with more than p
// partners, sources in increasing index; passes run in increasing p until
// the target is met. The output slot of (source i, pass p) is
//
//   slot(i, p) = pass_cum[p] + rank_p(i)
//
// where pass_cum[p] counts all midpoints of earlier passes and rank_p(i)
// ranks i among pass-p-eligible sources. Both are integer prefix sums over
// fixed chunk boundaries, and the partner drawn at (i, p) comes from a
// counter-based RNG stream keyed by (seed, i) — so every (i, p) cell can be
// computed independently, in any order, on any number of workers.
// ---------------------------------------------------------------------------

}  // namespace

void interpolate_into(const PointCloud& input, double ratio,
                      const InterpolationConfig& config,
                      InterpolationResult& result, ThreadPool* pool,
                      InterpolationScratch* scratch) {
  InterpolationScratch local_scratch;
  InterpolationScratch& s = scratch != nullptr ? *scratch : local_scratch;

  result.timing = InterpolationTiming{};
  result.cloud = input;
  result.original_count = input.size();
  result.parents.clear();
  result.new_neighbors.resize(0, 0);
  if (input.size() < 2 || ratio <= 1.0) return;

  const std::size_t n = input.size();
  const std::size_t k = std::max<std::size_t>(2, config.k);
  const std::size_t dk = std::min<std::size_t>(
      n - 1, k * std::size_t(std::max(1, config.dilation)));

  // --- Stage 1: neighbor search over the source cloud -----------------------
  TraceSpan knn_span("sr/knn");
  bool kdtree_built = false;
  if (config.use_octree) {
    // Approximate own-cell search (see TwoLayerOctree::batch_knn): the
    // dilated neighborhood only feeds random partner selection, so exact
    // k-th-neighbor boundaries are not needed.
    s.octree.build(input.positions(), pool);
    s.octree.batch_knn(dk, s.dilated, pool, /*exact=*/false);
  } else {
    // Vanilla kNN path: one kd-tree query per source point, run as chunked
    // batches on the pool. This is the baseline whose cost Figure 11
    // compares against.
    s.kdtree.build(input.positions());
    kdtree_built = true;
    batch_knn_kdtree(s.kdtree, input.positions(), dk, s.dilated, pool,
                     /*exclude_self=*/true);
  }
  result.timing.knn_ms = knn_span.stop_ms();

  // --- Stage 2: midpoint generation from dilated neighborhoods --------------
  TraceSpan interp_span("sr/interpolate");
  const std::size_t target_new =
      static_cast<std::size_t>(std::llround(double(n) * (ratio - 1.0)));
  const std::size_t chunks = chunk_count(n, kStage2Chunk);
  const std::size_t P = dk;  // a source has at most dk partners

  // Phase A (parallel): per chunk, count sources by partner availability and
  // suffix-accumulate into "sources with more than p partners".
  s.pass_table.resize(chunks * P);
  run_chunked(pool, n, kStage2Chunk,
              [&](std::size_t c, std::size_t begin, std::size_t end) {
                std::uint32_t* ge = s.pass_table.data() + c * P;
                std::fill(ge, ge + P, 0u);
                for (std::size_t i = begin; i < end; ++i) {
                  const std::size_t avail = s.dilated.count(i);
                  if (avail > 0) ++ge[avail - 1];
                }
                for (std::size_t p = P - 1; p-- > 0;) ge[p] += ge[p + 1];
              });

  // Phase B (serial, O(chunks * P)): turn per-chunk counts into per-chunk
  // rank bases (exclusive prefix across chunks) and per-pass slot offsets.
  s.pass_cum.resize(P + 1);
  s.pass_cum[0] = 0;
  for (std::size_t p = 0; p < P; ++p) {
    std::uint32_t running = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::uint32_t count = s.pass_table[c * P + p];
      s.pass_table[c * P + p] = running;  // becomes the chunk's rank base
      running += count;
    }
    s.pass_cum[p + 1] = s.pass_cum[p] + running;
  }
  const std::size_t produced = std::min<std::size_t>(target_new,
                                                     s.pass_cum[P]);
  std::size_t passes_used = 0;
  while (passes_used < P && s.pass_cum[passes_used] < produced) ++passes_used;

  result.cloud.resize(n + produced);
  result.parents.resize(produced);

  // Phase C (parallel): emit midpoints into their fixed slots. Partner order
  // per source is a Fisher-Yates prefix shuffle of its dilated neighborhood,
  // driven by the source's own (seed, i) stream — what realizes the paper's
  // "randomly select a subset S_i": with d > 1 partners spread over the
  // wider receptive field instead of always being the closest points. The
  // shuffled prefix depends only on (seed, i), never on the ratio or the
  // worker count, so repeated visits at higher ratios extend — not reshuffle
  // — a source's partner sequence.
  if (produced > 0) {
    s.rank_scratch.resize(chunks * P);
    s.partner_scratch.resize(chunks * P);
    run_chunked(
        pool, n, kStage2Chunk,
        [&](std::size_t c, std::size_t begin, std::size_t end) {
          std::uint32_t* rank = s.rank_scratch.data() + c * P;
          std::uint32_t* partner = s.partner_scratch.data() + c * P;
          const std::uint32_t* base = s.pass_table.data() + c * P;
          std::fill(rank, rank + P, 0u);
          for (std::size_t i = begin; i < end; ++i) {
            const std::span<const Neighbor> nbrs = s.dilated[i];
            const std::size_t avail = nbrs.size();
            const std::size_t visits = std::min(avail, passes_used);
            if (visits == 0) continue;
            std::iota(partner, partner + avail, 0u);
            CounterRng rng(config.seed, /*stream=*/i);
            for (std::size_t j = 0; j < visits; ++j) {
              std::swap(partner[j], partner[j + rng.next(avail - j)]);
            }
            for (std::size_t p = 0; p < visits; ++p) {
              const std::size_t slot =
                  s.pass_cum[p] + base[p] + rank[p];
              ++rank[p];
              if (slot >= produced) continue;
              const auto pi = static_cast<std::uint32_t>(i);
              const auto qi =
                  static_cast<std::uint32_t>(nbrs[partner[p]].index);
              result.cloud.position(n + slot) =
                  midpoint(input.position(pi), input.position(qi));
              result.cloud.color(n + slot) = input.color(pi);
              result.parents[slot] = {pi, qi};
            }
          }
        });
  }
  result.timing.interpolate_ms = interp_span.stop_ms();

  // --- Stage 3: neighbor lists for new points + colorization ----------------
  TraceSpan colorize_span("sr/colorize");
  result.new_neighbors.resize(produced, k);
  const std::size_t new_begin = result.original_count;

  // Keep a kd-tree around only for the no-reuse ablation path.
  if (!config.reuse_neighbors && !kdtree_built) {
    s.kdtree.build(input.positions());
  }

  auto process_range = [&](std::size_t, std::size_t begin, std::size_t end) {
    KnnTally tally;  // used by the no-reuse ablation only
    for (std::size_t j = begin; j < end; ++j) {
      const Vec3f& np = result.cloud.position(new_begin + j);
      if (config.reuse_neighbors) {
        // Eq. 2: N_k(p') ~= MergeAndPrune(N_k(p), N_k(q)). Parents' own
        // indices are added as candidates too (they are typically among the
        // closest source points to the midpoint).
        const auto [pi, qi] = result.parents[j];
        const std::span<const Neighbor> da = s.dilated[pi];
        const std::span<const Neighbor> db = s.dilated[qi];
        std::array<Neighbor, 32> cand_a, cand_b;
        const std::size_t na = std::min({k, da.size(), cand_a.size() - 1});
        const std::size_t nb = std::min({k, db.size(), cand_b.size() - 1});
        std::copy_n(da.begin(), na, cand_a.begin());
        std::copy_n(db.begin(), nb, cand_b.begin());
        cand_a[na] = {pi, 0.0f};
        cand_b[nb] = {qi, 0.0f};
        result.new_neighbors.set_count(
            j, merge_and_prune_into(
                   std::span<const Neighbor>(cand_a.data(), na + 1),
                   std::span<const Neighbor>(cand_b.data(), nb + 1), np,
                   input.positions(), k, result.new_neighbors.slot(j)));
      } else {
        NeighborHeap heap(result.new_neighbors.slot(j));
        s.kdtree.knn_into(np, heap, KdTree::kNoExclude, &tally);
        result.new_neighbors.set_count(j, heap.sort_ascending());
      }
      // Nearest original point's color (§4.1), reusing the merged neighbor
      // list just computed — no extra spatial queries, and the list is still
      // cache-hot. Each iteration writes only its own color slot, so the
      // fold into the parallel loop keeps output bit-identical.
      const std::span<const Neighbor> nbrs = result.new_neighbors[j];
      const std::uint32_t nearest =
          nbrs.empty() ? result.parents[j][0]
                       : static_cast<std::uint32_t>(nbrs.front().index);
      result.cloud.color(new_begin + j) = input.color(nearest);
    }
  };
  run_chunked(pool, produced, /*chunk=*/512, process_range);
  result.timing.colorize_ms = colorize_span.stop_ms();
}

InterpolationResult interpolate(const PointCloud& input, double ratio,
                                const InterpolationConfig& config,
                                ThreadPool* pool,
                                InterpolationScratch* scratch) {
  InterpolationResult result;
  interpolate_into(input, ratio, config, result, pool, scratch);
  return result;
}

}  // namespace volut
