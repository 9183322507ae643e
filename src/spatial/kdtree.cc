#include "src/spatial/kdtree.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/spatial/knn_simd.h"

namespace volut {

void KdTree::build(std::span<const Vec3f> positions,
                   std::span<const std::uint32_t> report_indices) {
  // Rebuild in place: clear + push_back within retained capacity, so a tree
  // held in a per-frame scratch reaches an allocation-free steady state.
  points_ = positions;
  report_indices_ = report_indices;
  nodes_.clear();
  soa_x_.clear();
  soa_y_.clear();
  soa_z_.clear();
  soa_idx_.clear();
  index_.resize(positions.size());
  std::iota(index_.begin(), index_.end(), 0u);
  if (!index_.empty()) {
    nodes_.reserve(2 * index_.size() / kLeafSize + 2);
    // Worst-case SoA footprint: every point once, plus one pad block per
    // leaf — and the median split can produce leaves as small as
    // kLeafSize / 2, so bound the leaf count by that.
    const std::size_t soa_cap =
        index_.size() + kSoaLeafPad * (index_.size() / (kLeafSize / 2) + 2);
    soa_x_.reserve(soa_cap);
    soa_y_.reserve(soa_cap);
    soa_z_.reserve(soa_cap);
    soa_idx_.reserve(soa_cap);
    root_ = build_node(0, static_cast<std::uint32_t>(index_.size()), 0);
  }
}

std::uint32_t KdTree::build_node(std::uint32_t begin, std::uint32_t end,
                                 int depth) {
  const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  if (end - begin <= kLeafSize) {
    nodes_[id].axis = -1;
    nodes_[id].begin = begin;
    nodes_[id].end = end;
    // SoA mirror of the leaf, padded to the vector width so kernels read
    // whole vectors. Padding lanes measure +inf distance and are bounded
    // out of reporting by the leaf's valid count.
    nodes_[id].soa_begin = static_cast<std::uint32_t>(soa_x_.size());
    for (std::uint32_t i = begin; i < end; ++i) {
      const std::uint32_t pi = index_[i];
      soa_x_.push_back(points_[pi].x);
      soa_y_.push_back(points_[pi].y);
      soa_z_.push_back(points_[pi].z);
      soa_idx_.push_back(report_indices_.empty() ? pi : report_indices_[pi]);
    }
    constexpr float kPad = std::numeric_limits<float>::infinity();
    while (soa_x_.size() % kSoaLeafPad != 0) {
      soa_x_.push_back(kPad);
      soa_y_.push_back(kPad);
      soa_z_.push_back(kPad);
      soa_idx_.push_back(std::numeric_limits<std::uint32_t>::max());
    }
    return id;
  }
  // Pick the axis with the largest spread over this range.
  Vec3f lo{std::numeric_limits<float>::max(),
           std::numeric_limits<float>::max(),
           std::numeric_limits<float>::max()};
  Vec3f hi = -lo;
  for (std::uint32_t i = begin; i < end; ++i) {
    lo = min(lo, points_[index_[i]]);
    hi = max(hi, points_[index_[i]]);
  }
  const Vec3f spread = hi - lo;
  int axis = 0;
  if (spread.y > spread[axis]) axis = 1;
  if (spread.z > spread[axis]) axis = 2;
  if (spread[axis] == 0.0f) axis = depth % 3;  // degenerate: all coincident

  const std::uint32_t mid = begin + (end - begin) / 2;
  std::nth_element(index_.begin() + begin, index_.begin() + mid,
                   index_.begin() + end,
                   [this, axis](std::uint32_t a, std::uint32_t b) {
                     return points_[a][axis] < points_[b][axis];
                   });
  nodes_[id].axis = axis;
  nodes_[id].split = points_[index_[mid]][axis];
  const std::uint32_t left = build_node(begin, mid, depth + 1);
  const std::uint32_t right = build_node(mid, end, depth + 1);
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

std::vector<Neighbor> KdTree::knn(const Vec3f& query, std::size_t k) const {
  if (empty() || k == 0) return {};
  std::vector<Neighbor> out(std::min(k, size()));
  NeighborHeap heap(out);
  knn_into(query, heap);
  out.resize(heap.sort_ascending());
  return out;
}

void KdTree::knn_into(const Vec3f& query, NeighborHeap& heap,
                      std::uint32_t exclude, KnnTally* tally) const {
  if (empty()) return;
  const LeafScanFn scan = active_leaf_scan();
  KnnTally local;
  KnnTally& t = tally != nullptr ? *tally : local;
  const std::uint64_t pushes_before = heap.pushes();
  // Explicit-stack traversal (the hot path has no recursion): descend
  // toward the query, deferring each far subtree with the squared distance
  // to its splitting plane; after every leaf scan, resume the nearest
  // deferred subtree that can still contribute.
  std::uint32_t node_stack[kMaxDepth];
  float dist_stack[kMaxDepth];
  int sp = 0;
  std::uint32_t node_id = root_;
  for (;;) {
    const Node* node = &nodes_[node_id];
    while (node->axis >= 0) {
      const float delta = query[node->axis] - node->split;
      const bool left_near = delta < 0.0f;
      node_stack[sp] = left_near ? node->right : node->left;
      dist_stack[sp] = delta * delta;
      ++sp;
      node_id = left_near ? node->left : node->right;
      node = &nodes_[node_id];
    }
    scan(soa_x_.data() + node->soa_begin, soa_y_.data() + node->soa_begin,
         soa_z_.data() + node->soa_begin, soa_idx_.data() + node->soa_begin,
         node->end - node->begin, query, exclude, heap);
    ++t.leaf_scans;
    t.points_scanned += node->end - node->begin;
    // Prune with > (not >=): a subtree whose plane distance exactly equals
    // the current worst may still hold an equidistant neighbor that wins
    // the (distance, index) tie-break.
    do {
      if (sp == 0) {
        ++t.queries;
        t.heap_pushes += heap.pushes() - pushes_before;
        return;
      }
      --sp;
    } while (dist_stack[sp] > heap.worst_dist2());
    node_id = node_stack[sp];
  }
}

Neighbor KdTree::nearest(const Vec3f& query, KnnTally* tally) const {
  // Empty-tree sentinel (kNoNeighbor, +inf): callers fold it into metrics
  // as "infinitely far" instead of reading nodes_[0] out of bounds.
  Neighbor best{kNoNeighbor, std::numeric_limits<float>::infinity()};
  if (empty()) return best;
  NeighborHeap heap(std::span<Neighbor>(&best, 1));
  knn_into(query, heap, kNoExclude, tally);
  return best;
}

void KdTree::search_radius(std::uint32_t node_id, const Vec3f& query, float r2,
                           std::vector<Neighbor>& out) const {
  const Node& node = nodes_[node_id];
  if (node.axis < 0) {
    for (std::uint32_t i = node.begin; i < node.end; ++i) {
      const std::uint32_t pi = index_[i];
      const float d2 = distance2(query, points_[pi]);
      if (d2 <= r2) out.push_back({pi, d2});
    }
    return;
  }
  const float delta = query[node.axis] - node.split;
  const std::uint32_t near = delta < 0.0f ? node.left : node.right;
  const std::uint32_t far = delta < 0.0f ? node.right : node.left;
  search_radius(near, query, r2, out);
  if (delta * delta <= r2) search_radius(far, query, r2, out);
}

std::vector<Neighbor> KdTree::radius(const Vec3f& query, float radius) const {
  std::vector<Neighbor> out;
  if (!empty() && radius >= 0.0f) {
    search_radius(root_, query, radius * radius, out);
    std::sort(out.begin(), out.end());
  }
  return out;
}

}  // namespace volut
