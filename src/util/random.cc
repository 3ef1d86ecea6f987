#include "util/random.h"

#include <algorithm>
#include <cmath>

namespace fnproxy::util {

namespace {

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Random::Random(uint64_t seed) {
  uint64_t sm = seed;
  for (uint64_t& s : state_) s = SplitMix64(sm);
}

uint64_t Random::NextUint64(uint64_t bound) {
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  while (true) {
    uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Random::NextGaussian() {
  if (have_gaussian_) {
    have_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = 0.0;
  double u2 = 0.0;
  NextGaussianUniforms(&u1, &u2);
  const GaussianPair pair = BoxMuller(u1, u2);
  cached_gaussian_ = pair.sin;
  have_gaussian_ = true;
  return pair.cos;
}

GaussianPair BoxMuller(double u1, double u2) {
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return {mag * std::cos(2.0 * M_PI * u2), mag * std::sin(2.0 * M_PI * u2)};
}

ZipfDistribution::ZipfDistribution(size_t n, double theta) {
  cdf_.resize(n);
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_[k] = sum;
  }
  for (double& v : cdf_) v /= sum;
}

size_t ZipfDistribution::Sample(Random& rng) const {
  double u = rng.NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace fnproxy::util
