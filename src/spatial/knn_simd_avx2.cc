// AVX2 leaf-scan kernel: 8 squared distances per iteration. This TU is the
// only one compiled with -mavx2 (see VOLUT_SIMD in CMakeLists.txt), so AVX2
// instructions cannot leak into code that runs before the cpuid dispatch.
#include "src/spatial/knn_simd.h"

#if defined(VOLUT_SIMD_X86)

#include <immintrin.h>

#include <algorithm>

#include "src/spatial/knn.h"

namespace volut {

namespace {

void leaf_scan_avx2(const float* x, const float* y, const float* z,
                    const std::uint32_t* idx, std::size_t count,
                    const Vec3f& query, std::uint32_t exclude,
                    NeighborHeap& heap) {
  const __m256 qx = _mm256_set1_ps(query.x);
  const __m256 qy = _mm256_set1_ps(query.y);
  const __m256 qz = _mm256_set1_ps(query.z);
  alignas(32) float d2s[8];
  for (std::size_t base = 0; base < count; base += 8) {
    const __m256 dx = _mm256_sub_ps(qx, _mm256_loadu_ps(x + base));
    const __m256 dy = _mm256_sub_ps(qy, _mm256_loadu_ps(y + base));
    const __m256 dz = _mm256_sub_ps(qz, _mm256_loadu_ps(z + base));
    // Explicit mul/add (never FMA) in the same association as
    // Vec3f::distance2: (dx*dx + dy*dy) + dz*dz.
    const __m256 d2 = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(dx, dx), _mm256_mul_ps(dy, dy)),
        _mm256_mul_ps(dz, dz));
    // Prefilter with <=: a candidate at exactly the worst distance stays
    // live because the heap may accept it on the index tie-break. Padding
    // lanes measure +inf and fail once the heap is full; before that the
    // `limit` bound below keeps them out.
    const int keep = _mm256_movemask_ps(_mm256_cmp_ps(
        d2, _mm256_set1_ps(heap.worst_dist2()), _CMP_LE_OQ));
    if (keep == 0) continue;
    _mm256_store_ps(d2s, d2);
    const std::size_t limit = std::min<std::size_t>(8, count - base);
    for (std::size_t lane = 0; lane < limit; ++lane) {
      if (((keep >> lane) & 1) == 0) continue;
      const std::uint32_t reported = idx[base + lane];
      if (reported == exclude) continue;
      heap.push(reported, d2s[lane]);
    }
  }
}

}  // namespace

LeafScanFn avx2_leaf_scan_kernel() { return &leaf_scan_avx2; }

}  // namespace volut

#else  // !VOLUT_SIMD_X86

namespace volut {
LeafScanFn avx2_leaf_scan_kernel() { return nullptr; }
}  // namespace volut

#endif
