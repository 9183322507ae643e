#include "src/sr/lut_builder.h"

#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/platform/thread_pool.h"
#include "src/sr/position_encoding.h"

namespace volut {

namespace {

/// Iterates all b^(n-1) neighbor-bin combinations (odometer order).
/// `bins_seq` holds n entries with slot 0 pinned to the center bin.
bool advance(std::vector<std::uint16_t>& bins_seq, int bins) {
  for (std::size_t i = bins_seq.size(); i-- > 1;) {
    if (++bins_seq[i] < bins) return true;
    bins_seq[i] = 0;
  }
  return false;
}

}  // namespace

RefinementLut distill_lut(const RefineNet& net, const LutSpec& spec,
                          ThreadPool* pool) {
  if (net.config().receptive_field != spec.receptive_field) {
    throw std::invalid_argument(
        "distill_lut: net/LUT receptive field mismatch");
  }
  RefinementLut lut(spec);
  const std::size_t n = spec.receptive_field;
  const int b = spec.bins;
  const std::uint16_t center_bin = quantize_coord(0.0f, b);

  // The reachable entries per axis form a flat space of b^(n-1) neighbor-bin
  // combinations. Chunks of that space distill independently: each entry's
  // prediction depends only on its own configuration and writes its own LUT
  // slot, so pool execution is bit-identical to the serial sweep.
  std::uint64_t total = 1;
  for (std::size_t i = 1; i < n; ++i) total *= std::uint64_t(b);

  constexpr std::size_t kBatch = 4096;
  for (int axis = 0; axis < 3; ++axis) {
    // One chunk is one predict_batch call of up to kBatch entries.
    auto distill_batch = [&](std::size_t, std::size_t begin, std::size_t end) {
      // Reconstruct the odometer state at `begin`: the neighbor slots are
      // the base-b digits of the flat index, last slot fastest (matching
      // advance()).
      std::vector<std::uint16_t> seq(n, 0);
      seq[0] = center_bin;
      std::uint64_t flat = begin;
      for (std::size_t i = n; i-- > 1;) {
        seq[i] = static_cast<std::uint16_t>(flat % std::uint64_t(b));
        flat /= std::uint64_t(b);
      }
      const std::size_t count = end - begin;
      std::vector<float> coords;
      coords.reserve(count * n);
      std::vector<std::uint64_t> indices;
      indices.reserve(count);
      for (std::size_t c = 0; c < count; ++c) {
        indices.push_back(axis_index(seq, b));
        for (std::size_t s = 0; s < n; ++s) {
          coords.push_back(dequantize_coord(seq[s], b));
        }
        advance(seq, b);
      }
      const std::vector<float> preds = net.predict_batch(axis, coords, count);
      for (std::size_t i = 0; i < count; ++i) {
        lut.set(axis, indices[i], preds[i]);
      }
    };
    run_chunked(pool, total, kBatch, distill_batch);
  }
  return lut;
}

RefinementLut build_lut_from_samples(const TrainingSet& data,
                                     const LutSpec& spec) {
  RefinementLut lut(spec);
  const std::size_t n = spec.receptive_field;
  const int b = spec.bins;
  for (int axis = 0; axis < 3; ++axis) {
    const AxisSamples& samples = data.axes[axis];
    // Accumulate sum/count sparsely, then write means.
    std::unordered_map<std::uint64_t, std::pair<double, std::size_t>> acc;
    std::vector<std::uint16_t> seq(n);
    for (std::size_t s = 0; s < samples.inputs.size(); ++s) {
      for (std::size_t j = 0; j < n; ++j) {
        seq[j] = quantize_coord(samples.inputs[s][j], b);
      }
      auto& slot = acc[axis_index(seq, b)];
      slot.first += samples.targets[s];
      ++slot.second;
    }
    // Each entry writes its own LUT slot from its own sum/count — no
    // cross-iteration accumulation, so hash order cannot reach the result.
    for (const auto& [idx, sum_count] : acc) {  // lint: order-independent
      lut.set(axis, idx,
              float(sum_count.first / double(sum_count.second)));
    }
  }
  return lut;
}

}  // namespace volut
