#include <gtest/gtest.h>

#include "imgproc/edge.hpp"
#include "imgproc/image.hpp"
#include "imgproc/ppm.hpp"
#include "imgproc/synth.hpp"

namespace aqm::img {
namespace {

/// Image with a sharp vertical edge at x = w/2.
GrayImage vertical_edge_image(int w, int h) {
  GrayImage im(w, h, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = w / 2; x < w; ++x) im.at(x, y) = 255;
  }
  return im;
}

TEST(Image, ClampedSampling) {
  GrayImage im(4, 4, 10);
  im.at(0, 0) = 99;
  EXPECT_EQ(im.at_clamped(-5, -5), 99);
  EXPECT_EQ(im.at_clamped(100, 100), im.at(3, 3));
}

TEST(Image, RgbToGrayLuma) {
  RgbImage rgb(2, 1);
  rgb.at(0, 0, 0) = 255;  // pure red
  rgb.at(1, 0, 1) = 255;  // pure green
  const GrayImage gray = rgb.to_gray();
  EXPECT_NEAR(gray.at(0, 0), 76, 2);   // 0.299 * 255
  EXPECT_NEAR(gray.at(1, 0), 150, 2);  // 0.587 * 255
}

class EdgeDetectorTest : public ::testing::TestWithParam<EdgeAlgorithm> {};

TEST_P(EdgeDetectorTest, RespondsAtStepEdge) {
  const GrayImage im = vertical_edge_image(32, 16);
  const GrayImage out = run_edge(GetParam(), im);
  ASSERT_EQ(out.width(), 32);
  ASSERT_EQ(out.height(), 16);
  // Strong response at the edge column...
  EXPECT_GT(out.at(16, 8), 100);
  // ...and silence in the flat regions.
  EXPECT_EQ(out.at(4, 8), 0);
  EXPECT_EQ(out.at(28, 8), 0);
}

TEST_P(EdgeDetectorTest, FlatImageGivesNoResponse) {
  const GrayImage im(16, 16, 128);
  const GrayImage out = run_edge(GetParam(), im);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) EXPECT_EQ(out.at(x, y), 0);
  }
}

TEST_P(EdgeDetectorTest, HorizontalEdgeAlsoDetected) {
  GrayImage im(16, 32, 0);
  for (int y = 16; y < 32; ++y) {
    for (int x = 0; x < 16; ++x) im.at(x, y) = 200;
  }
  const GrayImage out = run_edge(GetParam(), im);
  EXPECT_GT(out.at(8, 16), 50);
  EXPECT_EQ(out.at(8, 4), 0);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, EdgeDetectorTest,
                         ::testing::Values(EdgeAlgorithm::Kirsch, EdgeAlgorithm::Prewitt,
                                           EdgeAlgorithm::Sobel),
                         [](const auto& info) { return to_string(info.param); });

TEST(Edge, KirschIsOmnidirectional) {
  // A bright corner: Kirsch (compass masks) responds on both edges.
  GrayImage im(20, 20, 0);
  for (int y = 0; y < 10; ++y) {
    for (int x = 0; x < 10; ++x) im.at(x, y) = 255;
  }
  const GrayImage out = kirsch(im);
  EXPECT_GT(out.at(10, 5), 80);  // vertical edge
  EXPECT_GT(out.at(5, 10), 80);  // horizontal edge
}

/// FNV-1a over the outputs of one edge kernel on seeded random images of
/// every degenerate and ordinary shape (1x1, 1xN, Nx1, 2x2, odd and square
/// sizes), so any change to the kernels' arithmetic or border clamping
/// shows up as a different digest.
std::uint64_t edge_digest(EdgeAlgorithm algo) {
  constexpr int kShapes[][2] = {{1, 1}, {1, 7}, {7, 1},  {2, 2},  {3, 3},
                                {2, 5}, {16, 16}, {17, 9}, {5, 32}, {48, 48}};
  std::uint64_t state = 0x5EED0000u + static_cast<std::uint64_t>(algo);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& shape : kShapes) {
    for (int round = 0; round < 3; ++round) {
      GrayImage im(shape[0], shape[1]);
      for (std::uint8_t& px : im.data()) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        // Round 0: full range; round 1: saturated extremes; round 2: near-flat.
        const auto v = static_cast<std::uint8_t>(state >> 56);
        px = round == 0 ? v : round == 1 ? (v & 1 ? 255 : 0) : static_cast<std::uint8_t>(120 + (v & 7));
      }
      const GrayImage out = run_edge(algo, im);
      EXPECT_EQ(out.width(), im.width());
      EXPECT_EQ(out.height(), im.height());
      for (const std::uint8_t px : out.data()) {
        h ^= px;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

TEST(Edge, GoldenOutputsOnSeededImages) {
  EXPECT_EQ(edge_digest(EdgeAlgorithm::Prewitt), 17897259187860182584ull);
  EXPECT_EQ(edge_digest(EdgeAlgorithm::Sobel), 17693994717030736552ull);
  EXPECT_EQ(edge_digest(EdgeAlgorithm::Kirsch), 7992687879248710384ull);
}

TEST(Edge, ThresholdBinarizes) {
  const GrayImage im = vertical_edge_image(16, 8);
  const GrayImage edges = sobel(im);
  const GrayImage binary = threshold(edges, 128);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 16; ++x) {
      EXPECT_TRUE(binary.at(x, y) == 0 || binary.at(x, y) == 255);
    }
  }
}

TEST(Edge, CostModelOrdersAlgorithms) {
  const std::size_t pixels = 400 * 250;
  const std::uint64_t hz = 1'000'000'000;
  const Duration k = estimated_cost(EdgeAlgorithm::Kirsch, pixels, hz);
  const Duration p = estimated_cost(EdgeAlgorithm::Prewitt, pixels, hz);
  const Duration s = estimated_cost(EdgeAlgorithm::Sobel, pixels, hz);
  EXPECT_GT(k, s);
  EXPECT_GT(s, p);
  // Kirsch runs 8 masks vs 2: at least 3x the cost of Prewitt.
  EXPECT_GT(k.ns(), 3 * p.ns());
  // Sanity: 100k pixels in the tens-of-ms range at 1 GHz.
  EXPECT_GT(p.ns(), milliseconds(5).ns());
  EXPECT_LT(k.ns(), milliseconds(500).ns());
}

TEST(Ppm, RgbRoundTrip) {
  const RgbImage scene = make_scene(40, 25, 7);
  const auto bytes = encode_ppm(scene);
  const RgbImage back = decode_ppm(bytes);
  ASSERT_EQ(back.width(), 40);
  ASSERT_EQ(back.height(), 25);
  for (int y = 0; y < 25; ++y) {
    for (int x = 0; x < 40; ++x) {
      for (int c = 0; c < 3; ++c) ASSERT_EQ(back.at(x, y, c), scene.at(x, y, c));
    }
  }
}

TEST(Ppm, GrayRoundTrip) {
  const GrayImage im = vertical_edge_image(17, 9);
  const GrayImage back = decode_pgm(encode_pgm(im));
  ASSERT_EQ(back.width(), 17);
  for (int y = 0; y < 9; ++y) {
    for (int x = 0; x < 17; ++x) ASSERT_EQ(back.at(x, y), im.at(x, y));
  }
}

TEST(Ppm, PaperImageSizeMatches) {
  // The paper: "400x250 pixels, 300,060 bytes" binary PPM. Header size
  // varies slightly with formatting; we must land within a few bytes.
  const RgbImage scene = make_paper_scene(1);
  const auto bytes = encode_ppm(scene);
  EXPECT_NEAR(static_cast<double>(bytes.size()), 300'060.0, 60.0);
}

TEST(Ppm, RejectsMalformedInput) {
  EXPECT_THROW((void)decode_ppm({'P', '6'}), std::runtime_error);
  std::vector<std::uint8_t> truncated = encode_ppm(make_scene(10, 10, 1));
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW((void)decode_ppm(truncated), std::runtime_error);
  // Wrong magic.
  auto pgm_as_ppm = encode_pgm(GrayImage(4, 4, 1));
  EXPECT_THROW((void)decode_ppm(pgm_as_ppm), std::runtime_error);
}

TEST(Synth, DeterministicForSeed) {
  const RgbImage a = make_scene(50, 30, 99);
  const RgbImage b = make_scene(50, 30, 99);
  const RgbImage c = make_scene(50, 30, 100);
  EXPECT_TRUE(std::equal(a.data().begin(), a.data().end(), b.data().begin()));
  EXPECT_FALSE(std::equal(a.data().begin(), a.data().end(), c.data().begin()));
}

TEST(Synth, SceneHasEdgesForAtr) {
  // The synthetic scene must actually exercise the edge detectors.
  const GrayImage gray = make_paper_scene(3).to_gray();
  const GrayImage edges = sobel(gray);
  int strong = 0;
  for (int y = 0; y < edges.height(); ++y) {
    for (int x = 0; x < edges.width(); ++x) {
      if (edges.at(x, y) > 64) ++strong;
    }
  }
  // Target outlines (rectangles + circle perimeter) are hundreds of pixels.
  EXPECT_GT(strong, 200);
}

}  // namespace
}  // namespace aqm::img
