#include "core/rng.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "dsp/simd.h"

namespace fmbs::core {
namespace {

using Words = std::vector<std::uint64_t>;

// A uniform random bit generator that plays back fixed words, so the
// standard's distributions can be fed chosen draws.
class ScriptedEngine {
 public:
  using result_type = std::uint64_t;
  explicit ScriptedEngine(Words words) : words_(std::move(words)) {}
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }
  result_type operator()() { return words_.at(next_++); }

 private:
  Words words_;
  std::size_t next_ = 0;
};

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// The bits of mt64::polar's normals over words.
std::vector<std::uint32_t> run_polar(const Words& words) {
  std::vector<float> out(words.size());
  out.resize(mt64::polar(words.data(), words.size(), out.data()));
  std::vector<std::uint32_t> result;
  for (float v : out) result.push_back(bits(v));
  return result;
}

TEST(Mt64, TenThousandthDrawMatchesStandard) {
  // [rand.predef]: the 10000th consecutive invocation of a
  // default-constructed mt19937_64 produces 9981545732273789042.
  std::vector<std::uint64_t> state(mt64::kStateWords);
  std::vector<std::uint64_t> words(mt64::kStateWords);
  mt64::seed(5489, state.data());
  for (int refill = 0; refill < 33; ++refill) {
    mt64::refill(state.data(), words.data());  // draws 1 .. 33 * 312
  }
  EXPECT_EQ(words[10000 - 32 * 312 - 1], 9981545732273789042ULL);
}

TEST(Mt64, CanonicalConversionEdges) {
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  constexpr float kBelowOne = 0x1.fffffep-1F;
  struct Case {
    std::uint64_t word;
    float expected;
  };
  const Case cases[] = {
      {0, 0.0F},
      {1, 0x1p-64F},
      {kTop, 0.5F},
      {~std::uint64_t{0}, kBelowOne},  // rounds to 2^64: clamped
      {~std::uint64_t{0} - (std::uint64_t{1} << 38), kBelowOne},
      // Words just below 2^64 that stay below 1.0.
      {~std::uint64_t{0} - (std::uint64_t{1} << 39) - 1, kBelowOne},
      {~std::uint64_t{0} - (std::uint64_t{1} << 40), kBelowOne},
      // Exact ties at the 24-bit boundary round to the even neighbour.
      {kTop + (std::uint64_t{1} << 39), 0.5F},
      {kTop + (std::uint64_t{3} << 39), 0.5F + 0x1p-23F},
      {(std::uint64_t{1} << 24) + 1, 0x1p-40F},
      {(std::uint64_t{1} << 25) + 1, 0x1p-39F},
      {(std::uint64_t{1} << 25) + 3, 0x1p-39F + 0x1p-62F},
      // A tie, and a word a sticky bit below bit 11 lifts past it.
      {(std::uint64_t{1} << 60) + (std::uint64_t{1} << 36), 0x1p-4F},
      {(std::uint64_t{1} << 60) + (std::uint64_t{1} << 36) + 1,
       0x1p-4F + 0x1p-27F},
      {(std::uint64_t{1} << 53) - 1, 0x1p-11F},
      {std::uint64_t{1} << 53, 0x1p-11F},
      {(std::uint64_t{1} << 53) + (std::uint64_t{1} << 29) + 1,
       0x1p-11F + 0x1p-34F},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.word);
    EXPECT_EQ(bits(mt64::canonical(c.word)), bits(c.expected));
#ifdef __GLIBCXX__
    ScriptedEngine engine({c.word});
    EXPECT_EQ(bits(mt64::canonical(c.word)),
              bits(std::generate_canonical<float, 24>(engine)));
#endif
  }
}

TEST(Mt64, UnitRadiusPairGivesPositiveZeros) {
  // Words 0 and 2^63 give x = -1, y = 0, so r2 == 1 is accepted and mult is
  // sqrtf(-0) = -0: the pair is (y * -0, x * -0) = (-0, +0). The
  // distribution's * stddev + mean turns the -0 into +0.
  const Words words = {0, std::uint64_t{1} << 63};
  float out[2];
  ASSERT_EQ(mt64::polar(words.data(), words.size(), out), 2U);
  EXPECT_EQ(bits(out[0]), bits(-0.0F));
  EXPECT_EQ(bits(out[1]), bits(0.0F));
  EXPECT_EQ(bits(out[0] * 1.0F + 0.0F), bits(0.0F));
#ifdef __GLIBCXX__
  ScriptedEngine engine(words);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  EXPECT_EQ(bits(dist(engine)), bits(0.0F));
  EXPECT_EQ(bits(dist(engine)), bits(0.0F));
#endif
}

// Pairs whose x or y word is an edge of the canonical conversion; the other
// word is 2^63 (a coordinate of 0), so each pair is accepted. Then random
// words, and pairs rejected for r2 > 1 (both coordinates -1) and r2 == 0.
Words edge_pairs() {
  const std::uint64_t kMid = std::uint64_t{1} << 63;
  const Words edges = {1,
                       kMid + (std::uint64_t{1} << 39),
                       kMid + (std::uint64_t{3} << 39),
                       ~std::uint64_t{0},
                       ~std::uint64_t{0} - (std::uint64_t{1} << 40),
                       (std::uint64_t{1} << 53) - 1,
                       (std::uint64_t{1} << 53) + (std::uint64_t{1} << 29) + 1,
                       (std::uint64_t{1} << 60) + (std::uint64_t{1} << 36),
                       0};
  Words words;
  for (std::uint64_t e : edges) {
    words.insert(words.end(), {e, kMid, kMid, e});
  }
  words.insert(words.end(), {0, 0, kMid, kMid, 0, kMid});
  std::mt19937_64 rng(11);
  while (words.size() % 8 != 0 || words.size() < 320) words.push_back(rng());
  return words;
}

TEST(Mt64, PolarMatchesStdOnEdgeWords) {
  const Words words = edge_pairs();
  const std::vector<std::uint32_t> got = run_polar(words);
#ifdef __GLIBCXX__
  // The distribution draws pairs until one is accepted, so replaying the
  // words gives one normal per accepted draw until they run out.
  ScriptedEngine engine(words);
  std::normal_distribution<float> dist(0.0F, 1.0F);
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    // mean 0, stddev 1: only a -0 turns into +0.
    EXPECT_EQ(bits(std::bit_cast<float>(got[i]) * 1.0F + 0.0F),
              bits(dist(engine)));
  }
#else
  EXPECT_FALSE(got.empty());
#endif
}

TEST(Mt64, Avx2KernelsMatchPlainCpp) {
#if FMBS_SIMD_ENABLED
  if (!dsp::simd::avx2_available()) GTEST_SKIP() << "this CPU has no AVX2";
  for (std::uint64_t seed : {0ULL, 1ULL, 5489ULL, ~0ULL}) {
    SCOPED_TRACE(seed);
    Words a(mt64::kStateWords);
    Words b(mt64::kStateWords);
    Words wa(mt64::kStateWords);
    Words wb(mt64::kStateWords);
    mt64::seed(seed, a.data());
    b = a;
    for (int refill = 0; refill < 40; ++refill) {
      mt64::refill(a.data(), wa.data());
      dsp::simd::avx2::mt64_refill(b.data(), wb.data());
      ASSERT_EQ(a, b);
      ASSERT_EQ(wa, wb);
      std::vector<float> na(mt64::kStateWords);
      std::vector<float> nb(mt64::kStateWords);
      const std::size_t ca = mt64::polar(wa.data(), wa.size(), na.data());
      const std::size_t cb =
          dsp::simd::avx2::mt64_polar(wb.data(), wb.size(), nb.data());
      ASSERT_EQ(ca, cb);
      for (std::size_t i = 0; i < ca; ++i) ASSERT_EQ(bits(na[i]), bits(nb[i]));
    }
  }
  const Words edges = edge_pairs();
  std::vector<float> got(edges.size());
  got.resize(dsp::simd::avx2::mt64_polar(edges.data(), edges.size(),
                                          got.data()));
  const std::vector<std::uint32_t> expected = run_polar(edges);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i]), expected[i]) << i;
  }
#else
  GTEST_SKIP() << "SIMD kernels compiled out";
#endif
}

// The first 64 draws of std::normal_distribution<float>(0, 1) over
// std::mt19937_64(seed), recorded from libstdc++ (GCC 12). They pin the
// stream on every standard library; if std's own sequence ever changes, the
// comparison against std below fails while this one still passes.
TEST(NormalStream, RecordedFirstDraws) {
  const std::uint32_t seed1[64] = {
      0xbec60ed3, 0xbd2161da, 0x3f2fd3ab, 0xbe7eec2d, 0xbf4b8eb3, 0xbd5fd566,
      0x3ff80e9e, 0x3f801f39, 0x3df0adea, 0xbf5bdb1b, 0xbf25f62e, 0x3f2cb0ac,
      0xbfc3148c, 0xbefda220, 0x3f69ec9c, 0xbf208f99, 0xbfdf4fba, 0xbe454974,
      0x3f7be039, 0xbf586ff6, 0xbff0a58f, 0xbecffa2c, 0xbf3a378e, 0xbeab9c03,
      0x3f82e560, 0x3fac7d60, 0xbef652bf, 0x3fa6479e, 0xc018f254, 0x3f343744,
      0x3ec9459e, 0xbfa0a3de, 0xbe90b33f, 0x3f592ebc, 0xbea9304b, 0x3f08d293,
      0xbec9d35a, 0x3c89ad1d, 0x3dba6c62, 0x3a9ff0a0, 0x3f2b5249, 0x3e2d1ab6,
      0xbce45863, 0x3fb976d6, 0x3fd985fe, 0x3ec11a12, 0xbd000e62, 0xbe9af6ab,
      0xbebc4bbb, 0xbf000f09, 0x3e1e0d5e, 0x3f549d4c, 0x3f45e7ac, 0x3f526130,
      0xbf1ef751, 0x4031a603, 0x3f054ba2, 0x40022801, 0x3fb5dba8, 0x3ff4e247,
      0x3f8fc356, 0x3f7513f7, 0x4009aff1, 0xbf23bec3};
  const std::uint32_t seed7[64] = {
      0x3f5f68f4, 0xbf78f9e1, 0x3f0c1c81, 0x3fba4347, 0xbfce0f08, 0xbf5cbc4e,
      0xbf04913e, 0x3f60ac36, 0xbece4bcc, 0x3f22b18f, 0xbfbd9a2a, 0x3f5c223d,
      0xbfb8e01b, 0xbf9151c5, 0x3f96a90b, 0x3fb0fc4c, 0xbec307e4, 0x38580f64,
      0x3f6dcfcf, 0xbf8629a1, 0x3f67e537, 0xbe1961ab, 0xbf9b8ca2, 0x3f6f26a4,
      0x3ee62a19, 0xbf08e06f, 0x3e48c5d2, 0xbf8f9b90, 0xbfdc3371, 0x3f8a52e2,
      0x3da9eeae, 0xbf0aff44, 0xbf4f5f4b, 0xbebbf16b, 0x3e861d49, 0x3db216e1,
      0x3e62f568, 0xbfafa113, 0x3ff5c67a, 0x3f3b0a28, 0xbeeb1a2a, 0x3e776087,
      0xbeb79dee, 0xbe3c1754, 0x3db939a0, 0xbe01349e, 0xbff0901a, 0x3e9e8237,
      0xbf151268, 0xbf00fe77, 0xbf4f0d38, 0x3ebd400e, 0x3d824792, 0x3ff91e98,
      0x3fa75878, 0x3f111f20, 0xbea5c704, 0xbfd6b0dc, 0xbf08313e, 0xbe8ebc12,
      0xbf0db848, 0x3feecc04, 0xbf4e0ebc, 0x3ea3dd39};
  NormalStream one(1);
  NormalStream seven(7);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(bits(one.next()), seed1[i]) << i;
    EXPECT_EQ(bits(seven.next()), seed7[i]) << i;
  }
}

TEST(NormalStream, MatchesStdNormalDistributionBitForBit) {
#ifdef __GLIBCXX__
  struct Case {
    std::uint64_t seed;
    float mean;
    float stddev;
    std::size_t draws;
  };
  const Case cases[] = {{0, 0.0F, 1.0F, 3'000'000},
                        {1, 0.0F, 1.0F, 3'000'000},
                        {~std::uint64_t{0}, 0.0F, 1.0F, 3'000'000},
                        {42, -0.25F, 3.5F, 1'000'000}};
  std::mt19937_64 cuts(2024);
  std::vector<float> block;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.seed);
    std::mt19937_64 rng(c.seed);
    std::normal_distribution<float> dist(c.mean, c.stddev);
    NormalStream stream(c.seed, c.mean, c.stddev);
    std::size_t drawn = 0;
    while (drawn < c.draws) {
      // Blocks of 0-1000 draws, odd sizes included, and single next()s.
      const std::size_t n = cuts() % 1001;
      block.resize(n);
      if (n % 7 == 3) {
        for (auto& v : block) v = stream.next();
      } else {
        stream.fill(block);
      }
      for (std::size_t i = 0; i < n; ++i) {
        const float want = dist(rng);
        if (bits(block[i]) != bits(want)) {
          FAIL() << "draw " << drawn + i << ": " << block[i] << " vs " << want;
        }
      }
      drawn += n;
    }
  }
#else
  GTEST_SKIP() << "reproduces libstdc++'s normal_distribution";
#endif
}

}  // namespace
}  // namespace fmbs::core
