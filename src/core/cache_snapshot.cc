#include "core/cache_snapshot.h"

#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/polytope.h"
#include "util/string_util.h"
#include "xml/xml.h"

namespace fnproxy::core {

using geometry::Region;
using geometry::ShapeKind;
using util::Status;
using util::StatusOr;

namespace {

std::string PointToText(const geometry::Point& p) {
  std::string out;
  for (size_t i = 0; i < p.size(); ++i) {
    if (i > 0) out += ' ';
    out += util::FormatDouble(p[i]);
  }
  return out;
}

StatusOr<geometry::Point> PointFromText(std::string_view text, size_t dims) {
  std::vector<std::string> parts;
  for (const std::string& part : util::Split(std::string(text), ' ')) {
    if (!util::Trim(part).empty()) parts.push_back(part);
  }
  if (parts.size() != dims) {
    return Status::ParseError(std::string("expected ") + std::to_string(dims) +
                              " coordinates, got " +
                              std::to_string(parts.size()));
  }
  geometry::Point point(dims);
  for (size_t i = 0; i < dims; ++i) {
    FNPROXY_ASSIGN_OR_RETURN(point[i], util::ParseDouble(parts[i]));
  }
  return point;
}

}  // namespace

std::string RegionToXml(const Region& region) {
  std::string out = "<Region shape=\"";
  out += geometry::ShapeKindName(region.kind());
  out += "\" dims=\"";
  out += std::to_string(region.dimensions()) + "\">";
  switch (region.kind()) {
    case ShapeKind::kHypersphere: {
      const auto& sphere = static_cast<const geometry::Hypersphere&>(region);
      out += "<Center>" + PointToText(sphere.center()) + "</Center>";
      out += "<Radius>" + util::FormatDouble(sphere.radius()) + "</Radius>";
      break;
    }
    case ShapeKind::kHyperrectangle: {
      const auto& rect = static_cast<const geometry::Hyperrectangle&>(region);
      out += "<Lo>" + PointToText(rect.lo()) + "</Lo>";
      out += "<Hi>" + PointToText(rect.hi()) + "</Hi>";
      break;
    }
    case ShapeKind::kPolytope: {
      const auto& poly = static_cast<const geometry::Polytope&>(region);
      out += "<Halfspaces>";
      for (const geometry::Halfspace& h : poly.halfspaces()) {
        out += "<H><Normal>" + PointToText(h.normal) + "</Normal><Offset>" +
               util::FormatDouble(h.offset) + "</Offset></H>";
      }
      out += "</Halfspaces><Vertices>";
      for (const geometry::Point& v : poly.vertices()) {
        out += "<V>" + PointToText(v) + "</V>";
      }
      out += "</Vertices>";
      break;
    }
  }
  out += "</Region>";
  return out;
}

StatusOr<std::unique_ptr<Region>> RegionFromXml(std::string_view xml_text) {
  FNPROXY_ASSIGN_OR_RETURN(auto root, xml::ParseXml(xml_text));
  if (root->name() != "Region") {
    return Status::ParseError("expected <Region> root");
  }
  const std::string* shape = root->FindAttribute("shape");
  const std::string* dims_text = root->FindAttribute("dims");
  if (shape == nullptr || dims_text == nullptr) {
    return Status::ParseError("<Region> needs shape and dims attributes");
  }
  FNPROXY_ASSIGN_OR_RETURN(int64_t dims_value, util::ParseInt64(*dims_text));
  if (dims_value <= 0 || dims_value > 16) {
    return Status::ParseError("bad region dimensionality");
  }
  size_t dims = static_cast<size_t>(dims_value);

  if (*shape == "hypersphere") {
    FNPROXY_ASSIGN_OR_RETURN(std::string center_text, root->ChildText("Center"));
    FNPROXY_ASSIGN_OR_RETURN(std::string radius_text, root->ChildText("Radius"));
    FNPROXY_ASSIGN_OR_RETURN(geometry::Point center,
                             PointFromText(center_text, dims));
    FNPROXY_ASSIGN_OR_RETURN(double radius, util::ParseDouble(radius_text));
    if (radius < 0) return Status::ParseError("negative radius");
    return std::unique_ptr<Region>(
        std::make_unique<geometry::Hypersphere>(std::move(center), radius));
  }
  if (*shape == "hyperrectangle") {
    FNPROXY_ASSIGN_OR_RETURN(std::string lo_text, root->ChildText("Lo"));
    FNPROXY_ASSIGN_OR_RETURN(std::string hi_text, root->ChildText("Hi"));
    FNPROXY_ASSIGN_OR_RETURN(geometry::Point lo, PointFromText(lo_text, dims));
    FNPROXY_ASSIGN_OR_RETURN(geometry::Point hi, PointFromText(hi_text, dims));
    for (size_t i = 0; i < dims; ++i) {
      if (lo[i] > hi[i]) return Status::ParseError("rectangle lo > hi");
    }
    return std::unique_ptr<Region>(std::make_unique<geometry::Hyperrectangle>(
        std::move(lo), std::move(hi)));
  }
  if (*shape == "polytope") {
    const xml::XmlElement* halfspaces = root->FindChild("Halfspaces");
    const xml::XmlElement* vertices = root->FindChild("Vertices");
    if (halfspaces == nullptr || vertices == nullptr) {
      return Status::ParseError("polytope region needs halfspaces + vertices");
    }
    std::vector<geometry::Halfspace> hs;
    for (const xml::XmlElement* h : halfspaces->FindChildren("H")) {
      FNPROXY_ASSIGN_OR_RETURN(std::string normal_text, h->ChildText("Normal"));
      FNPROXY_ASSIGN_OR_RETURN(std::string offset_text, h->ChildText("Offset"));
      geometry::Halfspace halfspace;
      FNPROXY_ASSIGN_OR_RETURN(halfspace.normal,
                               PointFromText(normal_text, dims));
      FNPROXY_ASSIGN_OR_RETURN(halfspace.offset,
                               util::ParseDouble(offset_text));
      hs.push_back(std::move(halfspace));
    }
    std::vector<geometry::Point> vs;
    for (const xml::XmlElement* v : vertices->FindChildren("V")) {
      FNPROXY_ASSIGN_OR_RETURN(geometry::Point vertex,
                               PointFromText(v->text(), dims));
      vs.push_back(std::move(vertex));
    }
    if (hs.empty() || vs.empty()) {
      return Status::ParseError("empty polytope geometry");
    }
    auto poly = std::make_unique<geometry::Polytope>(std::move(hs), std::move(vs));
    FNPROXY_RETURN_NOT_OK(poly->Validate());
    return std::unique_ptr<Region>(std::move(poly));
  }
  return Status::ParseError("unknown region shape '" + *shape + "'");
}

}  // namespace fnproxy::core
