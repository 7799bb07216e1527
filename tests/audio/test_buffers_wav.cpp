#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "audio/audio_buffer.h"
#include "audio/tone.h"
#include "audio/wav.h"

namespace fmbs::audio {
namespace {

/// A scratch file path unique to the running test, so ctest -j can run the
/// file tests of this binary side by side.
std::string test_temp_path(const char* extension) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return (std::filesystem::temp_directory_path() /
          (std::string("fmbs_") + info->test_suite_name() + "_" +
           info->name() + extension))
      .string();
}

TEST(AudioBuffer, DurationAndSize) {
  MonoBuffer m(std::vector<float>(48000, 0.0F), 48000.0);
  EXPECT_EQ(m.size(), 48000U);
  EXPECT_NEAR(m.duration_seconds(), 1.0, 1e-9);
  EXPECT_FALSE(m.empty());
}

TEST(AudioBuffer, StereoMismatchThrows) {
  EXPECT_THROW(StereoBuffer(std::vector<float>(10), std::vector<float>(11), 48000.0),
               std::invalid_argument);
}

TEST(AudioBuffer, MidSideRoundTrip) {
  std::vector<float> l{1.0F, 0.5F, -0.5F};
  std::vector<float> r{0.0F, 0.5F, 0.5F};
  StereoBuffer s(l, r, 48000.0);
  const MonoBuffer mid = s.mid();
  const MonoBuffer side = s.side();
  for (std::size_t i = 0; i < l.size(); ++i) {
    EXPECT_NEAR(mid.samples[i] + side.samples[i], l[i], 1e-6F);
    EXPECT_NEAR(mid.samples[i] - side.samples[i], r[i], 1e-6F);
  }
}

TEST(AudioBuffer, DualMonoHasZeroSide) {
  const MonoBuffer m = make_tone(440.0, 0.5, 0.01, 48000.0);
  const StereoBuffer s = StereoBuffer::dual_mono(m);
  for (const float v : s.side().samples) EXPECT_EQ(v, 0.0F);
}

class WavRoundTrip : public ::testing::Test {
 protected:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::string path_ = test_temp_path(".wav");
};

TEST_F(WavRoundTrip, MonoPcm16) {
  const MonoBuffer in = make_tone(1000.0, 0.5, 0.1, 48000.0);
  write_wav(path_, in);
  const MonoBuffer out = read_wav(path_);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(out.sample_rate, 48000.0);
  for (std::size_t i = 0; i < in.size(); i += 97) {
    EXPECT_NEAR(out.samples[i], in.samples[i], 1.5e-4F);
  }
}

TEST_F(WavRoundTrip, StereoDownmixesOnRead) {
  const MonoBuffer l = make_tone(500.0, 0.8, 0.05, 44100.0);
  const MonoBuffer r = make_silence(0.05, 44100.0);
  write_wav(path_, StereoBuffer(l.samples, r.samples, 44100.0));
  const MonoBuffer out = read_wav(path_);
  EXPECT_EQ(out.sample_rate, 44100.0);
  // Downmix = (L+R)/2 = L/2.
  float peak = 0.0F;
  for (const float v : out.samples) peak = std::max(peak, std::abs(v));
  EXPECT_NEAR(peak, 0.4F, 0.02F);
}

TEST_F(WavRoundTrip, ClipsOutOfRange) {
  MonoBuffer loud(std::vector<float>(100, 3.0F), 8000.0);
  write_wav(path_, loud);
  const MonoBuffer out = read_wav(path_);
  for (const float v : out.samples) EXPECT_LE(v, 1.0F);
}

TEST(Wav, MissingFileThrows) {
  EXPECT_THROW(read_wav("/nonexistent/definitely_missing.wav"), std::runtime_error);
}

TEST(Wav, GarbageFileThrows) {
  const std::string path = test_temp_path(".bin");
  {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("this is not a wav file at all", f);
    std::fclose(f);
  }
  EXPECT_THROW(read_wav(path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fmbs::audio
