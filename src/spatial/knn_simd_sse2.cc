// SSE2 leaf-scan kernel: 4 squared distances per iteration. This TU is the
// only one compiled with -msse2 (a no-op on x86-64, where SSE2 is baseline;
// meaningful on i386). Same arithmetic and prefilter contract as the AVX2
// kernel — see knn_simd_avx2.cc.
#include "src/spatial/knn_simd.h"

#if defined(VOLUT_SIMD_X86)

#include <emmintrin.h>

#include <algorithm>

#include "src/spatial/knn.h"

namespace volut {

namespace {

void leaf_scan_sse2(const float* x, const float* y, const float* z,
                    const std::uint32_t* idx, std::size_t count,
                    const Vec3f& query, std::uint32_t exclude,
                    NeighborHeap& heap) {
  const __m128 qx = _mm_set1_ps(query.x);
  const __m128 qy = _mm_set1_ps(query.y);
  const __m128 qz = _mm_set1_ps(query.z);
  alignas(16) float d2s[4];
  for (std::size_t base = 0; base < count; base += 4) {
    const __m128 dx = _mm_sub_ps(qx, _mm_loadu_ps(x + base));
    const __m128 dy = _mm_sub_ps(qy, _mm_loadu_ps(y + base));
    const __m128 dz = _mm_sub_ps(qz, _mm_loadu_ps(z + base));
    const __m128 d2 =
        _mm_add_ps(_mm_add_ps(_mm_mul_ps(dx, dx), _mm_mul_ps(dy, dy)),
                   _mm_mul_ps(dz, dz));
    const int keep = _mm_movemask_ps(
        _mm_cmple_ps(d2, _mm_set1_ps(heap.worst_dist2())));
    if (keep == 0) continue;
    _mm_store_ps(d2s, d2);
    const std::size_t limit = std::min<std::size_t>(4, count - base);
    for (std::size_t lane = 0; lane < limit; ++lane) {
      if (((keep >> lane) & 1) == 0) continue;
      const std::uint32_t reported = idx[base + lane];
      if (reported == exclude) continue;
      heap.push(reported, d2s[lane]);
    }
  }
}

}  // namespace

LeafScanFn sse2_leaf_scan_kernel() { return &leaf_scan_sse2; }

}  // namespace volut

#else  // !VOLUT_SIMD_X86

namespace volut {
LeafScanFn sse2_leaf_scan_kernel() { return nullptr; }
}  // namespace volut

#endif
