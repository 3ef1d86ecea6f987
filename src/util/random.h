#ifndef FNPROXY_UTIL_RANDOM_H_
#define FNPROXY_UTIL_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fnproxy::util {

/// Deterministic, seedable pseudo-random generator (xoshiro256**).
/// Used everywhere randomness is needed so experiments are reproducible
/// bit-for-bit across runs and platforms. The per-draw methods are inline:
/// catalog and trace generation make millions of draws.
class Random {
 public:
  explicit Random(uint64_t seed);

  /// Uniform in [0, 2^64).
  uint64_t NextUint64() {
    const uint64_t result = RotL(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = RotL(state_[3], 45);
    return result;
  }
  /// Uniform in [0, bound). `bound` must be > 0.
  uint64_t NextUint64(uint64_t bound);
  /// Uniform in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [lo, hi).
  double NextDouble(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }
  /// Standard normal via Box-Muller: a call with no value cached draws a
  /// uniform pair (NextGaussianUniforms) and returns BoxMuller's cos value;
  /// the next call returns the same pair's sin value.
  double NextGaussian();
  /// Draws the uniform pair of one Box-Muller transform, exactly as
  /// NextGaussian draws it: u1 in (1e-300, 1), redrawn until it lies there,
  /// then u2 in [0, 1). A caller that defers the transform (to run it on
  /// another thread) keeps the stream NextGaussian would have consumed.
  void NextGaussianUniforms(double* u1, double* u2) {
    do {
      *u1 = NextDouble();
    } while (*u1 <= 1e-300);
    *u2 = NextDouble();
  }
  /// True with probability `p`.
  bool NextBool(double p) { return NextDouble() < p; }

 private:
  static uint64_t RotL(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
  bool have_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Two independent standard normals from one Box-Muller transform.
struct GaussianPair {
  double cos;
  double sin;
};

/// Box-Muller: with r = sqrt(-2 ln u1) and theta = 2 pi u2, returns
/// {r cos theta, r sin theta}. The one implementation NextGaussian uses.
GaussianPair BoxMuller(double u1, double u2);

/// Zipf-distributed integers over {0, ..., n-1} with exponent `theta`.
/// Precomputes the CDF once; sampling is O(log n). Used by the trace
/// generator to model hotspot popularity.
class ZipfDistribution {
 public:
  ZipfDistribution(size_t n, double theta);

  /// Returns a rank in [0, n) with P(k) proportional to 1/(k+1)^theta.
  size_t Sample(Random& rng) const;

  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace fnproxy::util

#endif  // FNPROXY_UTIL_RANDOM_H_
