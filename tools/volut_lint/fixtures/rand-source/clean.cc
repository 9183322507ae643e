// lint-fixture: src/serve/fixture_rand.cc
// Clean: randomness through the sanctioned seeded streams; identifiers that
// merely contain forbidden substrings; forbidden names inside strings and
// comments (e.g. mt19937) are not findings.
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/rng.h"

namespace volut {

std::uint64_t draw_well() {
  CounterRng rng(/*seed=*/1, /*stream=*/2);
  const std::uint64_t a = rng.next(100);
  // A comment naming std::rand or random_device is documentation, not use.
  const std::string note = "seeded, unlike std::rand()";
  const int operand = 3;  // contains "rand" but is not a call
  return a + std::uint64_t(operand) + note.size();
}

// Fisher-Yates over explicit draws; names that merely contain shuffle,
// sample or distribution are not the std:: algorithms.
std::size_t shuffle_well(std::vector<int>& v) {
  CounterRng shuffle_rng(/*seed=*/3);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[shuffle_rng.next(i)]);
  }
  const std::size_t sample = v.size();  // std::sample in a comment is fine
  const std::size_t distribution_bins = 4;
  return shuffle(sample) + distribution_bins;
}

}  // namespace volut
