// Benchmark-owned input generation.
//
// Operands, request sizes and frames come from this generator, never from
// the library's stats::Rng / UniformSource / apps image generators, so a
// change to the library's random streams cannot change what the serve_mix
// and image_kernels workloads feed the program. The same seed always
// yields the same inputs.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "apps/image.h"

namespace perfbench {

/// xoshiro256** seeded through splitmix64.
class BenchRng {
 public:
  explicit BenchRng(std::uint64_t seed);
  /// Independent stream for (seed, label): the label is hashed into the seed.
  static BenchRng derive(std::uint64_t seed, std::string_view label);

  std::uint64_t next();
  /// Uniform over [0, 2^bits), bits in [0, 64].
  std::uint64_t bits(int bits);
  /// Uniform over [lo, hi] inclusive.
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

 private:
  std::uint64_t s_[4];
};

/// 64-bit mix of a seed and a label (FNV-1a of the label, splitmix64
/// finalised); used for per-call master seeds as well as stream seeds.
std::uint64_t mix_seed(std::uint64_t seed, std::string_view label,
                       std::uint64_t index = 0);

/// Uniform 8-bit noise smoothed by `passes` 3x3 box filters (integer
/// arithmetic, clamped borders): spatially correlated frame content.
gear::apps::Image smoothed_noise_frame(int width, int height, BenchRng& rng,
                                       int passes = 2);

/// `base` shifted by (dx, dy) with clamped borders plus +-`noise_amp`
/// uniform noise: a synthetic next frame for motion search.
gear::apps::Image shifted_frame(const gear::apps::Image& base, int dx, int dy,
                                int noise_amp, BenchRng& rng);

/// The `w` x `h` window of `img` starting at (x0, y0).
gear::apps::Image crop(const gear::apps::Image& img, int x0, int y0, int w,
                       int h);

/// 64-bit content hash (FNV-1a over 64-bit words, splitmix64 finalised).
/// Used to compare kernel outputs with their referee without keeping the
/// referee outputs in memory.
std::uint64_t hash_words(const std::uint64_t* data, std::size_t count,
                         std::uint64_t h = 0);
std::uint64_t hash_image(const gear::apps::Image& img);
std::uint64_t hash_rows(const std::vector<std::vector<std::uint64_t>>& rows);

}  // namespace perfbench
