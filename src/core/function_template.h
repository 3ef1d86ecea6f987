#ifndef FNPROXY_CORE_FUNCTION_TEMPLATE_H_
#define FNPROXY_CORE_FUNCTION_TEMPLATE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "geometry/region.h"
#include "sql/ast.h"
#include "sql/value.h"
#include "util/status.h"

namespace fnproxy::core {

/// Most dimensions a template may declare, so the most a region may have.
inline constexpr size_t kMaxRegionDimensions = 16;

/// A function template (paper Fig. 3): the registered abstraction of a
/// table-valued function as a spatial region selection. It names the
/// function's formal parameters and gives closed-form expressions — over
/// those parameters — for the region's geometry, plus the names of the
/// result columns that carry each tuple's Cartesian coordinates (the paper's
/// "result attribute availability" property, §3.1 #4).
///
/// XML form (extends Fig. 3 with <CoordinateColumns>, which the paper's
/// framework needs for relationship checking and local evaluation):
///
///   <FunctionTemplate>
///     <Name>fGetNearbyObjEq</Name>
///     <Params><P>$ra</P><P>$dec</P><P>$radius</P></Params>
///     <Shape>hypersphere</Shape>
///     <NumDimensions>3</NumDimensions>
///     <CenterCoordinate>
///       <C>cos(radians($ra))*cos(radians($dec))</C>
///       <C>sin(radians($ra))*cos(radians($dec))</C>
///       <C>sin(radians($dec))</C>
///     </CenterCoordinate>
///     <Radius>2*sin(radians($radius/60.0)/2)</Radius>
///     <CoordinateColumns><C>cx</C><C>cy</C><C>cz</C></CoordinateColumns>
///   </FunctionTemplate>
///
/// Numbered element names (<1>, <2>, ...) as printed in the paper are also
/// accepted wherever <P>/<C> appear.
///
/// Hyperrectangle templates use <Lo><C>expr</C>...</Lo> and <Hi>...</Hi>
/// instead of center/radius; polytope templates use
/// <Halfspaces><H><Normal><C>..</C>..</Normal><Offset>..</Offset></H>..</Halfspaces>
/// and <Vertices><V><C>..</C>..</V>..</Vertices>.
class FunctionTemplate {
 public:
  /// Parses the XML form. Validates dimension counts and expression syntax.
  static util::StatusOr<FunctionTemplate> FromXml(std::string_view xml_text);

  /// Serializes back to the XML form.
  std::string ToXml() const;

  const std::string& name() const { return name_; }
  geometry::ShapeKind shape() const { return shape_; }
  size_t num_dimensions() const { return num_dimensions_; }
  /// Formal parameter names in call order (without the '$').
  const std::vector<std::string>& params() const { return params_; }
  /// Result columns holding the point coordinates, one per dimension.
  const std::vector<std::string>& coordinate_columns() const {
    return coordinate_columns_;
  }

  /// Instantiates the region for concrete argument values, positionally
  /// matched against params(). All geometry expressions must evaluate to
  /// numbers.
  util::StatusOr<std::unique_ptr<geometry::Region>> BuildRegion(
      const std::vector<sql::Value>& args) const;

  FunctionTemplate(FunctionTemplate&&) = default;
  FunctionTemplate& operator=(FunctionTemplate&&) = default;

 private:
  FunctionTemplate() = default;

  std::string name_;
  geometry::ShapeKind shape_ = geometry::ShapeKind::kHypersphere;
  size_t num_dimensions_ = 0;
  std::vector<std::string> params_;
  std::vector<std::string> coordinate_columns_;

  // Hypersphere geometry.
  std::vector<std::unique_ptr<sql::Expr>> center_exprs_;
  std::unique_ptr<sql::Expr> radius_expr_;
  // Hyperrectangle geometry.
  std::vector<std::unique_ptr<sql::Expr>> lo_exprs_;
  std::vector<std::unique_ptr<sql::Expr>> hi_exprs_;
  // Polytope geometry.
  struct HalfspaceExprs {
    std::vector<std::unique_ptr<sql::Expr>> normal;
    std::unique_ptr<sql::Expr> offset;
  };
  std::vector<HalfspaceExprs> halfspace_exprs_;
  std::vector<std::vector<std::unique_ptr<sql::Expr>>> vertex_exprs_;
};

}  // namespace fnproxy::core

#endif  // FNPROXY_CORE_FUNCTION_TEMPLATE_H_
