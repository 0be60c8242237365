#include "inputs.h"

#include <algorithm>
#include <cstring>

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

BenchRng::BenchRng(std::uint64_t seed) {
  for (auto& s : s_) s = splitmix64(seed);
}

BenchRng BenchRng::derive(std::uint64_t seed, std::string_view label) {
  return BenchRng(mix_seed(seed, label));
}

std::uint64_t BenchRng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t BenchRng::bits(int bits) {
  if (bits <= 0) return 0;
  return bits >= 64 ? next() : next() >> (64 - bits);
}

std::uint64_t BenchRng::range(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // full 64-bit range
  // Rejection sampling keeps the draw exactly uniform.
  const std::uint64_t limit = ~0ULL - (~0ULL % span);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return lo + x % span;
}

std::uint64_t mix_seed(std::uint64_t seed, std::string_view label,
                       std::uint64_t index) {
  std::uint64_t x = seed ^ fnv1a(label);
  splitmix64(x);
  x ^= index * 0xd1b54a32d192ed03ULL;
  return splitmix64(x);
}

gear::apps::Image smoothed_noise_frame(int width, int height, BenchRng& rng,
                                       int passes) {
  gear::apps::Image img(width, height);
  std::uint16_t* px = img.data();
  for (std::size_t i = 0; i < img.pixel_count(); ++i) {
    px[i] = static_cast<std::uint16_t>(rng.bits(8));
  }
  std::vector<std::uint16_t> tmp(img.pixel_count());
  for (int pass = 0; pass < passes; ++pass) {
    for (int y = 0; y < height; ++y) {
      for (int x = 0; x < width; ++x) {
        unsigned sum = 0;
        for (int dy = -1; dy <= 1; ++dy) {
          const int yy = std::clamp(y + dy, 0, height - 1);
          for (int dx = -1; dx <= 1; ++dx) {
            const int xx = std::clamp(x + dx, 0, width - 1);
            sum += px[static_cast<std::size_t>(yy) * static_cast<std::size_t>(width) +
                      static_cast<std::size_t>(xx)];
          }
        }
        tmp[static_cast<std::size_t>(y) * static_cast<std::size_t>(width) +
            static_cast<std::size_t>(x)] = static_cast<std::uint16_t>(sum / 9);
      }
    }
    std::copy(tmp.begin(), tmp.end(), px);
  }
  return img;
}

gear::apps::Image shifted_frame(const gear::apps::Image& base, int dx, int dy,
                                int noise_amp, BenchRng& rng) {
  gear::apps::Image out(base.width(), base.height());
  for (int y = 0; y < base.height(); ++y) {
    for (int x = 0; x < base.width(); ++x) {
      const int v = base.at_clamped(x - dx, y - dy) +
                    static_cast<int>(rng.range(0, 2 * static_cast<std::uint64_t>(noise_amp))) -
                    noise_amp;
      out.set(x, y, static_cast<std::uint16_t>(std::clamp(v, 0, 255)));
    }
  }
  return out;
}

gear::apps::Image crop(const gear::apps::Image& img, int x0, int y0, int w,
                       int h) {
  gear::apps::Image out(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) out.set(x, y, img.at(x0 + x, y0 + y));
  }
  return out;
}

std::uint64_t hash_words(const std::uint64_t* data, std::size_t count,
                         std::uint64_t h) {
  h ^= 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < count; ++i) {
    h = (h ^ data[i]) * 0x100000001b3ULL;
  }
  return splitmix64(h);
}

std::uint64_t hash_image(const gear::apps::Image& img) {
  const auto& px = img.pixels();
  std::vector<std::uint64_t> words((px.size() + 3) / 4, 0);
  std::memcpy(words.data(), px.data(), px.size() * sizeof(std::uint16_t));
  const std::uint64_t dims = (static_cast<std::uint64_t>(img.width()) << 32) |
                             static_cast<std::uint64_t>(img.height());
  return hash_words(words.data(), words.size(), dims);
}

std::uint64_t hash_rows(const std::vector<std::vector<std::uint64_t>>& rows) {
  std::uint64_t h = rows.size();
  for (const auto& row : rows) h = hash_words(row.data(), row.size(), h + row.size());
  return h;
}

}  // namespace perfbench
