// Fixture: the underived-seed rule applied to core::NormalStream, which owns
// an mt19937_64 seeded from its first argument. A literal there gives every
// caller the same noise, whatever the experiment's seed.
// NOT compiled — consumed by tools/lint_determinism.py --self-test.
#include "core/rng.h"

// expect: underived-seed
float literal_seeded() {
  fmbs::core::NormalStream noise(12345);
  return noise.next();
}

// expect: underived-seed
float literal_seeded_with_moments() {
  fmbs::core::NormalStream noise{0x5eedULL, 0.0F, 0.5F};
  return noise.next();
}

// A seed passed in by the caller does NOT trip the rule.
float derived(std::uint64_t seed) {
  fmbs::core::NormalStream noise(seed, 0.0F, 0.5F);
  return noise.next();
}
