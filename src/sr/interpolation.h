// Stage 1 of VoLUT's two-stage SR: enhanced dilated interpolation with
// colorization (§4.1).
//
// Given a low-resolution cloud and a (possibly fractional) upsampling ratio,
// this stage inserts midpoints between each source point and partners drawn
// from its *dilated* neighborhood N_{d·k} (Eq. 1). Dilation breaks the
// density-reinforcement artifact of vanilla kNN midpoints; the two-layer
// octree provides fast parallel neighbor search; Eq. 2 neighbor-relationship
// reuse gives each new point its k nearest neighbors without a fresh tree
// query (needed by the LUT refinement stage and colorization).
//
// All three stages run on the pool. Partner selection draws from counter-
// based RNG streams keyed by (seed, source index), so midpoint generation is
// a pure function of the input and config: the output is bit-identical at
// any worker count. Neighbor lists live in flat NeighborBuffer arenas, and a
// caller-held InterpolationScratch (plus a reused InterpolationResult) makes
// the steady-state frame loop allocation-free on the neighbor path.
//
// Configuration axes map to the paper's ablations:
//   dilation = 1, use_octree = false, reuse = false  -> "vanilla kNN" baseline
//   dilation = d, use_octree = true,  reuse = true   -> VoLUT (K4dX)
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "src/core/point_cloud.h"
#include "src/platform/thread_pool.h"
#include "src/spatial/kdtree.h"
#include "src/spatial/knn.h"
#include "src/spatial/octree.h"

namespace volut {

struct InterpolationConfig {
  /// Neighbor count k; the LUT receptive field is n = k (center + k-1
  /// neighbors) downstream.
  std::size_t k = 4;
  /// Dilation factor d; receptive field during partner selection is d*k.
  int dilation = 2;
  /// Use the two-layer octree (hierarchical kNN) instead of per-point
  /// kd-tree queries.
  bool use_octree = true;
  /// Reuse parent neighbor lists (Eq. 2) instead of fresh kNN per new point.
  bool reuse_neighbors = true;
  std::uint64_t seed = 42;
};

/// Wall-clock of each pipeline stage in milliseconds (feeds Figure 16).
struct InterpolationTiming {
  double knn_ms = 0.0;
  double interpolate_ms = 0.0;
  double colorize_ms = 0.0;
  double total_ms() const { return knn_ms + interpolate_ms + colorize_ms; }
};

struct InterpolationResult {
  /// Source points first (indices [0, original_count)), then new points.
  PointCloud cloud;
  std::size_t original_count = 0;
  /// Parent pair (source indices) of each new point.
  std::vector<std::array<std::uint32_t, 2>> parents;
  /// k nearest *source* points of each new point, sorted by distance —
  /// consumed by colorization and by the LUT refinement stage. Flat arena:
  /// new_neighbors[j] is the j-th new point's list.
  NeighborBuffer new_neighbors;
  InterpolationTiming timing;

  std::size_t new_count() const { return cloud.size() - original_count; }
};

/// Reusable working memory for interpolate(): the spatial index, the dilated
/// neighbor arena and the stage-2 scheduling tables. Every member is resized
/// in place each call, so a scratch kept across frames (e.g. one per
/// SrPipeline worker slot) reaches an allocation-free steady state — the
/// bench allocation counter asserts exactly that. A default-constructed
/// scratch is valid; interpolate() with no scratch argument uses a local one
/// (one-shot callers keep the old behavior and cost).
struct InterpolationScratch {
  TwoLayerOctree octree;
  KdTree kdtree;
  /// Stage-1 output: dilated neighborhood of every source point.
  NeighborBuffer dilated;
  /// Stage-2 schedule (see interpolation.cc): per-chunk, per-pass source
  /// counts that become rank bases, cumulative output slots per pass, and
  /// per-chunk rank counters / Fisher-Yates partner arrays.
  std::vector<std::uint32_t> pass_table;
  std::vector<std::uint64_t> pass_cum;
  std::vector<std::uint32_t> rank_scratch;
  std::vector<std::uint32_t> partner_scratch;
};

/// Upsamples `input` to ratio `ratio` (>= 1; fractional ratios supported —
/// the enabler of continuous ABR), writing into `result` (whose buffers are
/// reused across calls). `pool` may be nullptr for serial execution;
/// `scratch` may be nullptr for one-shot use.
void interpolate_into(const PointCloud& input, double ratio,
                      const InterpolationConfig& config,
                      InterpolationResult& result, ThreadPool* pool = nullptr,
                      InterpolationScratch* scratch = nullptr);

/// Convenience wrapper returning a fresh result.
InterpolationResult interpolate(const PointCloud& input, double ratio,
                                const InterpolationConfig& config,
                                ThreadPool* pool = nullptr,
                                InterpolationScratch* scratch = nullptr);

}  // namespace volut
