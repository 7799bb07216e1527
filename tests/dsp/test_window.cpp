#include "dsp/window.h"

#include <gtest/gtest.h>

#include <cmath>

namespace fmbs::dsp {
namespace {

class WindowTypes : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowTypes, SymmetricAndBounded) {
  const auto w = make_window(GetParam(), 65);
  ASSERT_EQ(w.size(), 65U);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-6) << "asymmetry at " << i;
    EXPECT_LE(w[i], 1.0F + 1e-6F);
    EXPECT_GE(w[i], -0.01F);
  }
}

TEST_P(WindowTypes, PeaksAtCenter) {
  const auto w = make_window(GetParam(), 65);
  const float center = w[32];
  for (const float v : w) EXPECT_LE(v, center + 1e-6F);
}

INSTANTIATE_TEST_SUITE_P(AllShapes, WindowTypes,
                         ::testing::Values(WindowType::kRectangular,
                                           WindowType::kHann,
                                           WindowType::kHamming,
                                           WindowType::kBlackman,
                                           WindowType::kBlackmanHarris));

TEST(Window, HannEndpointsAreZero) {
  const auto w = make_window(WindowType::kHann, 33);
  EXPECT_NEAR(w.front(), 0.0F, 1e-7F);
  EXPECT_NEAR(w.back(), 0.0F, 1e-7F);
  EXPECT_NEAR(w[16], 1.0F, 1e-6F);
}

TEST(Window, RectangularIsAllOnes) {
  const auto w = make_window(WindowType::kRectangular, 8);
  for (const float v : w) EXPECT_EQ(v, 1.0F);
}

TEST(Window, SizeOneIsUnity) {
  EXPECT_EQ(make_window(WindowType::kHann, 1).at(0), 1.0F);
  EXPECT_EQ(make_kaiser_window(1, 8.0).at(0), 1.0F);
}

TEST(Window, ZeroSizeThrows) {
  EXPECT_THROW(make_window(WindowType::kHann, 0), std::invalid_argument);
  EXPECT_THROW(make_kaiser_window(0, 5.0), std::invalid_argument);
}

TEST(Window, KaiserBetaZeroIsRectangular) {
  const auto w = make_kaiser_window(17, 0.0);
  for (const float v : w) EXPECT_NEAR(v, 1.0F, 1e-6F);
}

TEST(Window, KaiserNarrowsWithBeta) {
  const auto w1 = make_kaiser_window(65, 2.0);
  const auto w2 = make_kaiser_window(65, 10.0);
  // Higher beta -> smaller edge values (more taper).
  EXPECT_LT(w2.front(), w1.front());
  EXPECT_NEAR(w1[32], 1.0F, 1e-6F);
  EXPECT_NEAR(w2[32], 1.0F, 1e-6F);
}

TEST(Window, KaiserBetaFormulaRegions) {
  EXPECT_NEAR(kaiser_beta_for_attenuation(20.0), 0.0, 1e-12);
  EXPECT_GT(kaiser_beta_for_attenuation(40.0), 0.0);
  EXPECT_GT(kaiser_beta_for_attenuation(80.0),
            kaiser_beta_for_attenuation(60.0));
}

TEST(Window, KaiserOrderGrowsWithAttenuationAndShrinksWithWidth) {
  const auto n1 = kaiser_order_for(60.0, 0.05);
  const auto n2 = kaiser_order_for(80.0, 0.05);
  const auto n3 = kaiser_order_for(60.0, 0.1);
  EXPECT_GT(n2, n1);
  EXPECT_LT(n3, n1);
  EXPECT_THROW(kaiser_order_for(60.0, 0.0), std::invalid_argument);
}

TEST(Window, SumsMatchDirectComputation) {
  const auto w = make_window(WindowType::kHamming, 32);
  double ss = 0.0;
  for (const float v : w) ss += static_cast<double>(v) * v;
  EXPECT_NEAR(window_sum_squares(w), ss, 1e-9);
}

}  // namespace
}  // namespace fmbs::dsp
