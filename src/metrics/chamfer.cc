#include "src/metrics/chamfer.h"

#include <cmath>
#include <limits>

#include "src/platform/thread_pool.h"
#include "src/spatial/kdtree.h"

namespace volut {

namespace {

// Fixed chunk size for pool-parallel reductions (run_chunked's boundaries
// depend only on the input size, so per-chunk partial sums combine in the
// same order — and hence to the same bits — at any worker count).
constexpr std::size_t kReduceChunk = 8192;

}  // namespace

double directed_chamfer(const PointCloud& from, const PointCloud& to,
                        ThreadPool* pool) {
  if (from.empty()) return 0.0;
  if (to.empty()) return std::numeric_limits<double>::infinity();
  KdTree tree(to.positions());
  std::vector<double> partial(chunk_count(from.size(), kReduceChunk), 0.0);
  run_chunked(pool, from.size(), kReduceChunk,
              [&](std::size_t c, std::size_t begin, std::size_t end) {
                KnnTally tally;
                double s = 0.0;
                for (std::size_t i = begin; i < end; ++i) {
                  s += std::sqrt(
                      double(tree.nearest(from.position(i), &tally).dist2));
                }
                partial[c] = s;
              });
  double sum = 0.0;
  for (const double s : partial) sum += s;
  return sum / double(from.size());
}

double chamfer_distance(const PointCloud& a, const PointCloud& b,
                        ThreadPool* pool) {
  return directed_chamfer(a, b, pool) + directed_chamfer(b, a, pool);
}

double normalized_chamfer(const PointCloud& pred, const PointCloud& gt,
                          ThreadPool* pool) {
  const double diag = gt.bounds().diagonal();
  if (diag <= 0.0) return chamfer_distance(pred, gt, pool);
  return chamfer_distance(pred, gt, pool) / diag;
}

namespace {

double directed_density_aware(const PointCloud& from, const PointCloud& to,
                              double alpha, ThreadPool* pool) {
  if (from.empty()) return 0.0;
  if (to.empty()) return std::numeric_limits<double>::infinity();
  KdTree tree(to.positions());
  // First pass: nearest neighbor per query point (disjoint writes, so the
  // queries parallelize) followed by a serial per-target hit count (the
  // increments collide across chunks).
  std::vector<std::size_t> nearest(from.size());
  run_chunked(pool, from.size(), kReduceChunk,
              [&](std::size_t, std::size_t begin, std::size_t end) {
                KnnTally tally;
                for (std::size_t i = begin; i < end; ++i) {
                  nearest[i] = tree.nearest(from.position(i), &tally).index;
                }
              });
  std::vector<std::size_t> hits(to.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) ++hits[nearest[i]];
  // Second pass: the plain distance term plus a clumping penalty. When
  // several query points share one target neighbor, the extra hits each pay
  // an additional alpha-scaled share of their distance — over-concentrated
  // matches can no longer hide missing coverage the way plain CD allows.
  std::vector<double> partial(chunk_count(from.size(), kReduceChunk), 0.0);
  run_chunked(pool, from.size(), kReduceChunk,
              [&](std::size_t c, std::size_t begin, std::size_t end) {
                double s = 0.0;
                for (std::size_t i = begin; i < end; ++i) {
                  const double d = std::sqrt(double(
                      distance2(from.position(i), to.position(nearest[i]))));
                  const double clump =
                      1.0 - 1.0 / double(std::max<std::size_t>(
                                    1, hits[nearest[i]]));
                  s += d * (1.0 + alpha * clump);
                }
                partial[c] = s;
              });
  double sum = 0.0;
  for (const double s : partial) sum += s;
  return sum / double(from.size());
}

}  // namespace

double density_aware_chamfer(const PointCloud& a, const PointCloud& b,
                             double alpha, ThreadPool* pool) {
  return directed_density_aware(a, b, alpha, pool) +
         directed_density_aware(b, a, alpha, pool);
}

}  // namespace volut
