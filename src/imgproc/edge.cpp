#include "imgproc/edge.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

namespace aqm::img {
namespace {

/// The clamped 3x3 neighbourhood of one pixel, in row-major kernel order:
///  0 1 2
///  3 4 5
///  6 7 8
using Window = std::array<int, 9>;

/// Calls fn(x, y, window) for every pixel. The border replicates the edge
/// pixels (GrayImage::at_clamped); each window is loaded once, from three
/// row pointers and clamped column indices.
template <typename Fn>
void for_each_window(const GrayImage& in, Fn&& fn) {
  const int w = in.width();
  const int h = in.height();
  const std::uint8_t* px = in.data().data();
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* up = px + static_cast<std::ptrdiff_t>(std::max(y - 1, 0)) * w;
    const std::uint8_t* mid = px + static_cast<std::ptrdiff_t>(y) * w;
    const std::uint8_t* down = px + static_cast<std::ptrdiff_t>(std::min(y + 1, h - 1)) * w;
    for (int x = 0; x < w; ++x) {
      const int l = std::max(x - 1, 0);
      const int r = std::min(x + 1, w - 1);
      const Window n{up[l], up[x], up[r], mid[l], mid[x], mid[r], down[l], down[x], down[r]};
      fn(x, y, n);
    }
  }
}

/// |Gx| + |Gy| gradient magnitude with centre-column weight `c` (1 for
/// Prewitt, 2 for Sobel), scaled into [0, 255].
GrayImage two_kernel_gradient(const GrayImage& in, int c, int norm) {
  GrayImage out(in.width(), in.height());
  for_each_window(in, [&](int x, int y, const Window& n) {
    const int gx = (n[2] + c * n[5] + n[8]) - (n[0] + c * n[3] + n[6]);
    const int gy = (n[6] + c * n[7] + n[8]) - (n[0] + c * n[1] + n[2]);
    out.at(x, y) = static_cast<std::uint8_t>(std::min(255, (std::abs(gx) + std::abs(gy)) / norm));
  });
  return out;
}

}  // namespace

GrayImage prewitt(const GrayImage& in) {
  // Gx = [-1 0 1; -1 0 1; -1 0 1], Gy its transpose. Max |Gx|+|Gy| =
  // 6*255; scale by 3 to keep contrast while clamping.
  return two_kernel_gradient(in, 1, 3);
}

GrayImage sobel(const GrayImage& in) {
  // Gx = [-1 0 1; -2 0 2; -1 0 1], Gy its transpose.
  return two_kernel_gradient(in, 2, 4);
}

GrayImage kirsch(const GrayImage& in) {
  // The 8 Kirsch compass masks put 5 on three consecutive pixels of the
  // 8-neighbour ring and -3 on the other five (every mask sums to zero,
  // the centre weighs 0). So a mask's response is
  // 5*three - 3*(ring - three) = 8*three - 3*ring, and the best mask is
  // the rotation with the largest run of three.
  GrayImage out(in.width(), in.height());
  for_each_window(in, [&](int x, int y, const Window& n) {
    // Ring clockwise from top-left: 0,1,2,5,8,7,6,3.
    const std::array<int, 8> ring{n[0], n[1], n[2], n[5], n[8], n[7], n[6], n[3]};
    int sum = 0;
    for (const int v : ring) sum += v;
    int three = 0;
    for (std::size_t rot = 0; rot < 8; ++rot) {
      three = std::max(three, ring[rot] + ring[(rot + 1) % 8] + ring[(rot + 2) % 8]);
    }
    const int best = std::max(0, 8 * three - 3 * sum);
    // Max response is 15*255; scale by 8.
    out.at(x, y) = static_cast<std::uint8_t>(std::min(255, best / 8));
  });
  return out;
}

GrayImage run_edge(EdgeAlgorithm a, const GrayImage& in) {
  switch (a) {
    case EdgeAlgorithm::Kirsch: return kirsch(in);
    case EdgeAlgorithm::Prewitt: return prewitt(in);
    case EdgeAlgorithm::Sobel: return sobel(in);
  }
  return GrayImage{};
}

GrayImage threshold(const GrayImage& in, std::uint8_t level) {
  GrayImage out(in.width(), in.height());
  for (int y = 0; y < in.height(); ++y) {
    for (int x = 0; x < in.width(); ++x) {
      out.at(x, y) = in.at(x, y) >= level ? 255 : 0;
    }
  }
  return out;
}

Duration estimated_cost(EdgeAlgorithm a, std::size_t pixels, std::uint64_t hz) {
  const double cycles = cycles_per_pixel(a) * static_cast<double>(pixels);
  return Duration{static_cast<std::int64_t>(cycles * 1e9 / static_cast<double>(hz))};
}

}  // namespace aqm::img
