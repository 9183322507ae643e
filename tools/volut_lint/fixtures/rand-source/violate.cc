// lint-fixture: src/serve/fixture_rand.cc
// Violations: every randomness primitive that bypasses the seeded
// CounterRng streams in src/core/rng.h.
#include <cstdlib>
#include <random>
#include <vector>

#include "src/core/rng.h"

namespace volut {

int draw_badly() {
  std::random_device entropy;           // expect: rand-source
  std::mt19937 engine(entropy());      // expect: rand-source
  std::mt19937_64 wide{42};            // expect: rand-source
  srand(7);                            // expect: rand-source
  return rand() % 100 + int(engine()) + int(wide());  // expect: rand-source
}

// The standard fixes the engines' sequences but leaves these algorithms to
// each library, so their draws differ between libstdc++, libc++ and MSVC.
float draw_library_defined(std::vector<int>& v, CounterRng& rng) {
  std::uniform_int_distribution<int> pick(0, 9);    // expect: rand-source
  std::normal_distribution<float> noise(0.0f, 1.f);  // expect: rand-source
  std::shuffle(v.begin(), v.end(), rng);             // expect: rand-source
  std::sample(v.begin(), v.end(), v.begin(), 2, rng);  // expect: rand-source
  return std::generate_canonical<float, 24>(rng) +   // expect: rand-source
         float(pick(rng)) + noise(rng);
}

}  // namespace volut
