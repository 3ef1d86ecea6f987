#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/simd_kernels.h"
#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/point.h"
#include "geometry/polytope.h"
#include "util/simd.h"

namespace fnproxy::core::kernels {
namespace {

// Property suite for the membership kernels: for every shape, on every
// input (bitmapped or not, any tail length), the runtime-dispatched kernel,
// the scalar reference, and the geometry::Region::ContainsPointExact oracle
// must select the exact same row set. Run once natively and once under
// FNPROXY_FORCE_SCALAR=1 in CI, this pins SIMD output to the scalar
// semantics bit for bit.

/// Deterministic LCG doubles in [lo, hi).
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  double Uniform(double lo, double hi) {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    double unit = static_cast<double>(state_ >> 11) / 9007199254740992.0;
    return lo + unit * (hi - lo);
  }
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_;
  }

 private:
  uint64_t state_;
};

struct TestColumns {
  std::vector<std::vector<double>> values;     // [dim][row]
  std::vector<std::vector<uint64_t>> bitmaps;  // [dim][word], empty = all valid
  std::vector<Column> cols;

  size_t num_rows() const { return values.empty() ? 0 : values[0].size(); }

  bool RowValid(size_t r) const {
    for (size_t d = 0; d < cols.size(); ++d) {
      if (cols[d].valid != nullptr &&
          ((cols[d].valid[r >> 6] >> (r & 63)) & 1) == 0) {
        return false;
      }
    }
    return true;
  }

  geometry::Point RowPoint(size_t r) const {
    geometry::Point p(values.size());
    for (size_t d = 0; d < values.size(); ++d) p[d] = values[d][r];
    return p;
  }
};

/// Rows clustered around the origin so shapes anchored there select a
/// nontrivial subset. `with_bitmaps` marks ~1/4 of the rows NULL in some
/// column.
TestColumns MakeColumns(size_t dims, size_t rows, bool with_bitmaps,
                        uint64_t seed) {
  TestColumns tc;
  Lcg rng(seed);
  tc.values.resize(dims);
  tc.bitmaps.resize(dims);
  for (size_t d = 0; d < dims; ++d) {
    tc.values[d].resize(rows);
    for (size_t r = 0; r < rows; ++r) {
      tc.values[d][r] = rng.Uniform(-10.0, 10.0);
    }
  }
  tc.cols.resize(dims);
  for (size_t d = 0; d < dims; ++d) {
    if (with_bitmaps && d % 2 == 0) {
      size_t words = (rows + 63) / 64;
      tc.bitmaps[d].assign(words, 0);
      for (size_t r = 0; r < rows; ++r) {
        if (rng.Next() % 4 != 0) {
          tc.bitmaps[d][r >> 6] |= uint64_t{1} << (r & 63);
        }
      }
      tc.cols[d] = Column{tc.values[d].data(), tc.bitmaps[d].data()};
    } else {
      tc.cols[d] = Column{tc.values[d].data(), nullptr};
    }
  }
  return tc;
}

void ExpectSameSelection(const std::vector<uint32_t>& expected,
                         const std::vector<uint32_t>& actual,
                         const char* label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i], actual[i]) << label << " at position " << i;
  }
}

/// Tail lengths 0–7 around several vector-width multiples, plus larger runs.
const size_t kRowCounts[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,   9,
                             10, 13, 15, 16, 17, 63, 64, 65, 127, 500};

TEST(SimdKernelTest, SphereMatchesScalarAndOracle) {
  for (size_t dims : {2u, 3u, 5u}) {
    for (bool bitmapped : {false, true}) {
      for (size_t rows : kRowCounts) {
        TestColumns tc = MakeColumns(dims, rows, bitmapped,
                                     /*seed=*/rows * 31 + dims);
        geometry::Point center(dims);
        for (size_t d = 0; d < dims; ++d) center[d] = 0.5 * (d + 1);
        double radius = 6.0;
        geometry::Hypersphere sphere(center, radius);
        double limit = radius * radius;
        std::vector<double> c(center.begin(), center.end());

        std::vector<uint32_t> oracle;
        for (size_t r = 0; r < rows; ++r) {
          if (tc.RowValid(r) && sphere.ContainsPointExact(tc.RowPoint(r))) {
            oracle.push_back(static_cast<uint32_t>(r));
          }
        }
        std::vector<uint32_t> scalar(rows), dispatched(rows);
        scalar.resize(SelectSphereScalar(tc.cols.data(), dims, rows, c.data(),
                                         limit, scalar.data()));
        dispatched.resize(SelectSphere(tc.cols.data(), dims, rows, c.data(),
                                       limit, dispatched.data()));
        ExpectSameSelection(oracle, scalar, "sphere scalar vs oracle");
        ExpectSameSelection(oracle, dispatched, "sphere dispatch vs oracle");
      }
    }
  }
}

TEST(SimdKernelTest, RectMatchesScalarAndOracle) {
  for (size_t dims : {2u, 3u}) {
    // rect_dims < dims exercises validity-over-all-dims with bounds over a
    // prefix (the columnar SelectInRegion contract).
    for (size_t rect_dims = 1; rect_dims <= dims; ++rect_dims) {
      for (bool bitmapped : {false, true}) {
        for (size_t rows : kRowCounts) {
          TestColumns tc = MakeColumns(dims, rows, bitmapped,
                                       /*seed=*/rows * 97 + dims);
          std::vector<double> lo(rect_dims), hi(rect_dims);
          geometry::Point plo(rect_dims), phi(rect_dims);
          for (size_t d = 0; d < rect_dims; ++d) {
            plo[d] = -4.0 + d;
            phi[d] = 5.0 - d;
            lo[d] = plo[d];
            hi[d] = phi[d];
          }
          geometry::Hyperrectangle rect(plo, phi);

          std::vector<uint32_t> oracle;
          for (size_t r = 0; r < rows; ++r) {
            if (!tc.RowValid(r)) continue;
            geometry::Point sub(rect_dims);
            for (size_t d = 0; d < rect_dims; ++d) sub[d] = tc.values[d][r];
            if (rect.ContainsPointExact(sub)) {
              oracle.push_back(static_cast<uint32_t>(r));
            }
          }
          std::vector<uint32_t> scalar(rows), dispatched(rows);
          scalar.resize(SelectRectScalar(tc.cols.data(), dims, rect_dims, rows,
                                         lo.data(), hi.data(), scalar.data()));
          dispatched.resize(SelectRect(tc.cols.data(), dims, rect_dims, rows,
                                       lo.data(), hi.data(),
                                       dispatched.data()));
          ExpectSameSelection(oracle, scalar, "rect scalar vs oracle");
          ExpectSameSelection(oracle, dispatched, "rect dispatch vs oracle");
        }
      }
    }
  }
}

TEST(SimdKernelTest, PolytopeMatchesScalarAndOracle) {
  for (size_t dims : {2u, 3u}) {
    for (bool bitmapped : {false, true}) {
      for (size_t rows : kRowCounts) {
        TestColumns tc = MakeColumns(dims, rows, bitmapped,
                                     /*seed=*/rows * 7 + dims);
        // An axis-aligned box as halfspaces plus one diagonal cut, built
        // exactly like the columnar scan flattens a polytope.
        std::vector<geometry::Halfspace> halfspaces;
        for (size_t d = 0; d < dims; ++d) {
          geometry::Point up(dims), down(dims);
          up[d] = 1.0;
          down[d] = -1.0;
          halfspaces.push_back({up, 5.0});
          halfspaces.push_back({down, 4.0});
        }
        geometry::Point diag(dims);
        for (size_t d = 0; d < dims; ++d) diag[d] = 1.0;
        halfspaces.push_back({diag, 3.5});
        // The oracle only needs ContainsPointExact (H-representation); an
        // empty vertex set is fine for that.
        geometry::Polytope poly(halfspaces, {});

        std::vector<double> normals(halfspaces.size() * dims);
        std::vector<double> thresholds(halfspaces.size());
        for (size_t h = 0; h < halfspaces.size(); ++h) {
          for (size_t d = 0; d < dims; ++d) {
            normals[h * dims + d] = halfspaces[h].normal[d];
          }
          thresholds[h] = halfspaces[h].offset;
        }

        std::vector<uint32_t> oracle;
        for (size_t r = 0; r < rows; ++r) {
          if (tc.RowValid(r) && poly.ContainsPointExact(tc.RowPoint(r))) {
            oracle.push_back(static_cast<uint32_t>(r));
          }
        }
        std::vector<uint32_t> scalar(rows), dispatched(rows);
        scalar.resize(SelectPolytopeScalar(tc.cols.data(), dims, rows,
                                           normals.data(), thresholds.data(),
                                           halfspaces.size(), scalar.data()));
        dispatched.resize(SelectPolytope(tc.cols.data(), dims, rows,
                                         normals.data(), thresholds.data(),
                                         halfspaces.size(),
                                         dispatched.data()));
        ExpectSameSelection(oracle, scalar, "polytope scalar vs oracle");
        ExpectSameSelection(oracle, dispatched, "polytope dispatch vs oracle");
      }
    }
  }
}

TEST(SimdKernelTest, EmptyAndFullSelections) {
  const size_t dims = 2;
  for (size_t rows : {8u, 13u, 500u}) {
    TestColumns tc = MakeColumns(dims, rows, /*with_bitmaps=*/false,
                                 /*seed=*/rows);
    double center[] = {0.0, 0.0};
    std::vector<uint32_t> out(rows);
    // Radius so small nothing matches.
    size_t none = SelectSphere(tc.cols.data(), dims, rows, center,
                               /*limit_sq=*/1e-30, out.data());
    EXPECT_EQ(none, 0u);
    // Radius so large everything matches, indices dense ascending.
    size_t all = SelectSphere(tc.cols.data(), dims, rows, center,
                              /*limit_sq=*/1e12, out.data());
    ASSERT_EQ(all, rows);
    for (size_t r = 0; r < rows; ++r) {
      EXPECT_EQ(out[r], static_cast<uint32_t>(r));
    }
  }
}

TEST(SimdKernelTest, AllNullColumnSelectsNothing) {
  const size_t dims = 2;
  const size_t rows = 70;
  TestColumns tc = MakeColumns(dims, rows, /*with_bitmaps=*/false,
                               /*seed=*/3);
  std::vector<uint64_t> none((rows + 63) / 64, 0);
  tc.cols[1].valid = none.data();
  double center[] = {0.0, 0.0};
  std::vector<uint32_t> out(rows);
  EXPECT_EQ(SelectSphere(tc.cols.data(), dims, rows, center, 1e12, out.data()),
            0u);
  EXPECT_EQ(SelectSphereScalar(tc.cols.data(), dims, rows, center, 1e12,
                               out.data()),
            0u);
}

TEST(SimdKernelTest, DispatchPathIsConsistent) {
  // Whatever path Resolve() picked, it must be stable across calls and
  // consistent with the reported width.
  auto path = util::simd::ActivePath();
  EXPECT_EQ(path, util::simd::ActivePath());
  if (path == util::simd::DispatchPath::kScalar) {
    EXPECT_EQ(util::simd::SimdWidth(), 1u);
  } else {
    EXPECT_EQ(util::simd::SimdWidth(), 8u);
  }
}

}  // namespace
}  // namespace fnproxy::core::kernels
