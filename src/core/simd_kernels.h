#ifndef FNPROXY_CORE_SIMD_KERNELS_H_
#define FNPROXY_CORE_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace fnproxy::core::kernels {

/// One coordinate column as the membership kernels consume it: a contiguous
/// double array plus an optional validity bitmap (bit i set = row i holds a
/// numeric value; nullptr = every row valid). Layout-identical to
/// sql::ColumnarTable::NumericView, so views convert without copying.
struct Column {
  const double* data = nullptr;
  const uint64_t* valid = nullptr;
};

/// Membership kernels over coordinate columns. Each writes the selected row
/// indices (ascending) into `out`, which must have capacity for `num_rows`
/// entries, and returns the count written. A row is selected when every
/// column's validity bit is set (missing bitmaps count as valid) and the
/// shape predicate holds; the float semantics replicate the corresponding
/// geometry::Region::ContainsPointExact operation-for-operation (same
/// operand order, no fused multiply-add), so the SIMD and scalar paths
/// select bit-identical rows.
///
/// The unqualified entry points dispatch at runtime (AVX2 / NEON / scalar —
/// see util::simd::ActivePath); the *Scalar variants always run the scalar
/// reference and exist as the oracle for the SIMD property tests.

/// Hypersphere: sum over dims of (data[d][r] - center[d])^2, accumulated in
/// dimension order, compared <= limit_sq.
size_t SelectSphere(const Column* cols, size_t dims, size_t num_rows,
                    const double* center, double limit_sq, uint32_t* out);
size_t SelectSphereScalar(const Column* cols, size_t dims, size_t num_rows,
                          const double* center, double limit_sq,
                          uint32_t* out);

/// Hyperrectangle: validity over all `dims` columns, bounds over the first
/// `rect_dims` columns: lo[d] <= x <= hi[d] for every d < rect_dims.
size_t SelectRect(const Column* cols, size_t dims, size_t rect_dims,
                  size_t num_rows, const double* lo, const double* hi,
                  uint32_t* out);
size_t SelectRectScalar(const Column* cols, size_t dims, size_t rect_dims,
                        size_t num_rows, const double* lo, const double* hi,
                        uint32_t* out);

/// Convex polytope: inside iff for every halfspace h,
/// sum over dims of normals[h * dims + d] * data[d][r]  <=  thresholds[h],
/// the dot accumulated in dimension order. `thresholds` carries the
/// halfspace offsets.
size_t SelectPolytope(const Column* cols, size_t dims, size_t num_rows,
                      const double* normals, const double* thresholds,
                      size_t num_halfspaces, uint32_t* out);
size_t SelectPolytopeScalar(const Column* cols, size_t dims, size_t num_rows,
                            const double* normals, const double* thresholds,
                            size_t num_halfspaces, uint32_t* out);

}  // namespace fnproxy::core::kernels

#endif  // FNPROXY_CORE_SIMD_KERNELS_H_
