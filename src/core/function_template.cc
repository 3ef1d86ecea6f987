#include "core/function_template.h"

#include <algorithm>
#include <cmath>

#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/polytope.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/string_util.h"
#include "xml/xml.h"

namespace fnproxy::core {

using geometry::ShapeKind;
using sql::Expr;
using sql::Value;
using util::Status;
using util::StatusOr;
using xml::XmlElement;

namespace {

/// Collects the text of all children that are <P>, <C>, <V>, <H> or numbered
/// (<1>, <2>, ...) elements, in document order.
std::vector<const XmlElement*> ListChildren(const XmlElement& parent) {
  std::vector<const XmlElement*> out;
  for (const auto& child : parent.children()) {
    out.push_back(child.get());
  }
  return out;
}

StatusOr<std::unique_ptr<Expr>> ParseTemplateExpr(const std::string& text) {
  FNPROXY_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                           sql::ParseExpression(text));
  return expr;
}

StatusOr<ShapeKind> ParseShape(std::string_view text) {
  if (util::EqualsIgnoreCase(text, "hypersphere")) {
    return ShapeKind::kHypersphere;
  }
  if (util::EqualsIgnoreCase(text, "hyperrectangle") ||
      util::EqualsIgnoreCase(text, "hypercube")) {
    return ShapeKind::kHyperrectangle;
  }
  if (util::EqualsIgnoreCase(text, "polytope")) {
    return ShapeKind::kPolytope;
  }
  return Status::ParseError("unknown shape '" + std::string(text) + "'");
}

/// Parses a list of expression-bearing child elements into expression trees.
StatusOr<std::vector<std::unique_ptr<Expr>>> ParseExprList(
    const XmlElement& parent, size_t expected, const char* what) {
  std::vector<std::unique_ptr<Expr>> exprs;
  for (const XmlElement* child : ListChildren(parent)) {
    FNPROXY_ASSIGN_OR_RETURN(std::unique_ptr<Expr> expr,
                             ParseTemplateExpr(child->text()));
    exprs.push_back(std::move(expr));
  }
  if (expected != 0 && exprs.size() != expected) {
    return Status::ParseError(std::string(what) + " lists " +
                              std::to_string(exprs.size()) +
                              " expressions, expected " +
                              std::to_string(expected));
  }
  return exprs;
}

}  // namespace

StatusOr<FunctionTemplate> FunctionTemplate::FromXml(
    std::string_view xml_text) {
  FNPROXY_ASSIGN_OR_RETURN(auto root, xml::ParseXml(xml_text));
  if (root->name() != "FunctionTemplate") {
    return Status::ParseError("expected <FunctionTemplate> root");
  }
  FunctionTemplate tmpl;
  FNPROXY_ASSIGN_OR_RETURN(tmpl.name_, root->ChildText("Name"));

  const XmlElement* params = root->FindChild("Params");
  if (params == nullptr) return Status::ParseError("missing <Params>");
  for (const XmlElement* p : ListChildren(*params)) {
    std::string text = p->text();
    if (!text.empty() && text[0] == '$') text = text.substr(1);
    if (text.empty()) return Status::ParseError("empty parameter name");
    // BuildRegion binds arguments by name, so a second $x would overwrite
    // the first one's argument and build the region from the wrong value.
    if (std::find(tmpl.params_.begin(), tmpl.params_.end(), text) !=
        tmpl.params_.end()) {
      return Status::ParseError("duplicate parameter $" + text +
                                " in <Params>");
    }
    tmpl.params_.push_back(std::move(text));
  }

  FNPROXY_ASSIGN_OR_RETURN(std::string shape_text, root->ChildText("Shape"));
  FNPROXY_ASSIGN_OR_RETURN(tmpl.shape_, ParseShape(shape_text));

  FNPROXY_ASSIGN_OR_RETURN(std::string dims_text,
                           root->ChildText("NumDimensions"));
  FNPROXY_ASSIGN_OR_RETURN(int64_t dims, util::ParseInt64(dims_text));
  if (dims <= 0 || dims > static_cast<int64_t>(kMaxRegionDimensions)) {
    return Status::ParseError("NumDimensions must be in [1, " +
                              std::to_string(kMaxRegionDimensions) + "]");
  }
  tmpl.num_dimensions_ = static_cast<size_t>(dims);

  const XmlElement* coords = root->FindChild("CoordinateColumns");
  if (coords == nullptr) {
    return Status::ParseError(
        "missing <CoordinateColumns> (required for relationship checking "
        "and local evaluation)");
  }
  for (const XmlElement* c : ListChildren(*coords)) {
    tmpl.coordinate_columns_.push_back(c->text());
  }
  if (tmpl.coordinate_columns_.size() != tmpl.num_dimensions_) {
    return Status::ParseError(
        "CoordinateColumns count does not match NumDimensions");
  }

  switch (tmpl.shape_) {
    case ShapeKind::kHypersphere: {
      const XmlElement* center = root->FindChild("CenterCoordinate");
      if (center == nullptr) {
        return Status::ParseError("hypersphere template missing <CenterCoordinate>");
      }
      FNPROXY_ASSIGN_OR_RETURN(
          tmpl.center_exprs_,
          ParseExprList(*center, tmpl.num_dimensions_, "CenterCoordinate"));
      FNPROXY_ASSIGN_OR_RETURN(std::string radius_text,
                               root->ChildText("Radius"));
      FNPROXY_ASSIGN_OR_RETURN(tmpl.radius_expr_,
                               ParseTemplateExpr(radius_text));
      break;
    }
    case ShapeKind::kHyperrectangle: {
      const XmlElement* lo = root->FindChild("Lo");
      const XmlElement* hi = root->FindChild("Hi");
      if (lo == nullptr || hi == nullptr) {
        return Status::ParseError("hyperrectangle template needs <Lo> and <Hi>");
      }
      FNPROXY_ASSIGN_OR_RETURN(tmpl.lo_exprs_,
                               ParseExprList(*lo, tmpl.num_dimensions_, "Lo"));
      FNPROXY_ASSIGN_OR_RETURN(tmpl.hi_exprs_,
                               ParseExprList(*hi, tmpl.num_dimensions_, "Hi"));
      break;
    }
    case ShapeKind::kPolytope: {
      const XmlElement* halfspaces = root->FindChild("Halfspaces");
      const XmlElement* vertices = root->FindChild("Vertices");
      if (halfspaces == nullptr || vertices == nullptr) {
        return Status::ParseError(
            "polytope template needs <Halfspaces> and <Vertices>");
      }
      for (const XmlElement* h : ListChildren(*halfspaces)) {
        const XmlElement* normal = h->FindChild("Normal");
        const XmlElement* offset = h->FindChild("Offset");
        if (normal == nullptr || offset == nullptr) {
          return Status::ParseError("halfspace needs <Normal> and <Offset>");
        }
        HalfspaceExprs hs;
        FNPROXY_ASSIGN_OR_RETURN(
            hs.normal, ParseExprList(*normal, tmpl.num_dimensions_, "Normal"));
        FNPROXY_ASSIGN_OR_RETURN(hs.offset, ParseTemplateExpr(offset->text()));
        tmpl.halfspace_exprs_.push_back(std::move(hs));
      }
      for (const XmlElement* v : ListChildren(*vertices)) {
        FNPROXY_ASSIGN_OR_RETURN(
            std::vector<std::unique_ptr<Expr>> vertex,
            ParseExprList(*v, tmpl.num_dimensions_, "Vertex"));
        tmpl.vertex_exprs_.push_back(std::move(vertex));
      }
      if (tmpl.halfspace_exprs_.empty() || tmpl.vertex_exprs_.empty()) {
        return Status::ParseError("polytope template has empty geometry");
      }
      break;
    }
  }
  return tmpl;
}

std::string FunctionTemplate::ToXml() const {
  std::string out = "<FunctionTemplate>\n";
  out += "  <Name>" + xml::EscapeXml(name_) + "</Name>\n";
  out += "  <Params>";
  for (const std::string& p : params_) out += "<P>$" + p + "</P>";
  out += "</Params>\n";
  out += std::string("  <Shape>") + geometry::ShapeKindName(shape_) +
         "</Shape>\n";
  out += std::string("  <NumDimensions>") + std::to_string(num_dimensions_) +
         "</NumDimensions>\n";
  switch (shape_) {
    case ShapeKind::kHypersphere:
      out += "  <CenterCoordinate>";
      for (const auto& e : center_exprs_) {
        out += "<C>" + xml::EscapeXml(sql::ExprToSql(*e)) + "</C>";
      }
      out += "</CenterCoordinate>\n";
      out += "  <Radius>" + xml::EscapeXml(sql::ExprToSql(*radius_expr_)) +
             "</Radius>\n";
      break;
    case ShapeKind::kHyperrectangle:
      out += "  <Lo>";
      for (const auto& e : lo_exprs_) {
        out += "<C>" + xml::EscapeXml(sql::ExprToSql(*e)) + "</C>";
      }
      out += "</Lo>\n  <Hi>";
      for (const auto& e : hi_exprs_) {
        out += "<C>" + xml::EscapeXml(sql::ExprToSql(*e)) + "</C>";
      }
      out += "</Hi>\n";
      break;
    case ShapeKind::kPolytope:
      out += "  <Halfspaces>";
      for (const auto& h : halfspace_exprs_) {
        out += "<H><Normal>";
        for (const auto& n : h.normal) {
          out += "<C>" + xml::EscapeXml(sql::ExprToSql(*n)) + "</C>";
        }
        out += "</Normal><Offset>" + xml::EscapeXml(sql::ExprToSql(*h.offset)) +
               "</Offset></H>";
      }
      out += "</Halfspaces>\n  <Vertices>";
      for (const auto& v : vertex_exprs_) {
        out += "<V>";
        for (const auto& c : v) {
          out += "<C>" + xml::EscapeXml(sql::ExprToSql(*c)) + "</C>";
        }
        out += "</V>";
      }
      out += "</Vertices>\n";
      break;
  }
  out += "  <CoordinateColumns>";
  for (const std::string& c : coordinate_columns_) {
    out += "<C>" + xml::EscapeXml(c) + "</C>";
  }
  out += "</CoordinateColumns>\n</FunctionTemplate>\n";
  return out;
}

StatusOr<std::unique_ptr<geometry::Region>> FunctionTemplate::BuildRegion(
    const std::vector<Value>& args) const {
  if (args.size() != params_.size()) {
    return Status::InvalidArgument(
        name_ + " template expects " + std::to_string(params_.size()) +
        " arguments, got " + std::to_string(args.size()));
  }
  std::map<std::string, Value> bindings;
  for (size_t i = 0; i < params_.size(); ++i) {
    bindings[params_[i]] = args[i];
  }

  sql::ScalarFunctionRegistry registry =
      sql::ScalarFunctionRegistry::WithBuiltins();
  sql::ExprEvaluator evaluator(&registry);
  sql::RowBinding no_rows;

  // A NaN or infinite argument (`radius=nan`, `ra=1e999`) yields no
  // region: geometry compares such bounds as neither inside nor outside.
  auto eval_double = [&](const Expr& expr) -> StatusOr<double> {
    FNPROXY_ASSIGN_OR_RETURN(std::unique_ptr<Expr> bound,
                             sql::SubstituteParameters(expr, bindings));
    FNPROXY_ASSIGN_OR_RETURN(Value v, evaluator.Eval(*bound, no_rows));
    FNPROXY_ASSIGN_OR_RETURN(double value, v.ToNumeric());
    if (!std::isfinite(value)) {
      return Status::InvalidArgument("template region value is not finite");
    }
    return value;
  };

  switch (shape_) {
    case ShapeKind::kHypersphere: {
      geometry::Point center(num_dimensions_);
      for (size_t i = 0; i < num_dimensions_; ++i) {
        FNPROXY_ASSIGN_OR_RETURN(center[i], eval_double(*center_exprs_[i]));
      }
      FNPROXY_ASSIGN_OR_RETURN(double radius, eval_double(*radius_expr_));
      if (radius < 0) {
        return Status::InvalidArgument("template radius is negative");
      }
      return std::unique_ptr<geometry::Region>(
          std::make_unique<geometry::Hypersphere>(std::move(center), radius));
    }
    case ShapeKind::kHyperrectangle: {
      geometry::Point lo(num_dimensions_), hi(num_dimensions_);
      for (size_t i = 0; i < num_dimensions_; ++i) {
        FNPROXY_ASSIGN_OR_RETURN(lo[i], eval_double(*lo_exprs_[i]));
        FNPROXY_ASSIGN_OR_RETURN(hi[i], eval_double(*hi_exprs_[i]));
        if (lo[i] > hi[i]) {
          return Status::InvalidArgument("template rectangle has lo > hi");
        }
      }
      return std::unique_ptr<geometry::Region>(
          std::make_unique<geometry::Hyperrectangle>(std::move(lo),
                                                     std::move(hi)));
    }
    case ShapeKind::kPolytope: {
      std::vector<geometry::Halfspace> halfspaces;
      for (const HalfspaceExprs& h : halfspace_exprs_) {
        geometry::Halfspace hs;
        hs.normal.resize(num_dimensions_);
        for (size_t i = 0; i < num_dimensions_; ++i) {
          FNPROXY_ASSIGN_OR_RETURN(hs.normal[i], eval_double(*h.normal[i]));
        }
        FNPROXY_ASSIGN_OR_RETURN(hs.offset, eval_double(*h.offset));
        halfspaces.push_back(std::move(hs));
      }
      std::vector<geometry::Point> vertices;
      for (const auto& v : vertex_exprs_) {
        geometry::Point vertex(num_dimensions_);
        for (size_t i = 0; i < num_dimensions_; ++i) {
          FNPROXY_ASSIGN_OR_RETURN(vertex[i], eval_double(*v[i]));
        }
        vertices.push_back(std::move(vertex));
      }
      auto polytope = std::make_unique<geometry::Polytope>(
          std::move(halfspaces), std::move(vertices));
      FNPROXY_RETURN_NOT_OK(polytope->Validate());
      return std::unique_ptr<geometry::Region>(std::move(polytope));
    }
  }
  return Status::Internal("bad shape kind");
}

}  // namespace fnproxy::core
