#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/function_template.h"
#include "core/query_template.h"
#include "core/template_registry.h"
#include "geometry/celestial.h"
#include "geometry/hyperrectangle.h"
#include "geometry/hypersphere.h"
#include "geometry/region.h"
#include "workload/experiment.h"

namespace fnproxy::core {
namespace {

using sql::Value;

TEST(FunctionTemplateTest, ParsesPaperStyleSphereTemplate) {
  auto tmpl = FunctionTemplate::FromXml(workload::kNearbyObjEqTemplateXml);
  ASSERT_TRUE(tmpl.ok()) << tmpl.status().ToString();
  EXPECT_EQ(tmpl->name(), "fGetNearbyObjEq");
  EXPECT_EQ(tmpl->shape(), geometry::ShapeKind::kHypersphere);
  EXPECT_EQ(tmpl->num_dimensions(), 3u);
  ASSERT_EQ(tmpl->params().size(), 3u);
  EXPECT_EQ(tmpl->params()[0], "ra");
  EXPECT_EQ(tmpl->coordinate_columns(),
            (std::vector<std::string>{"cx", "cy", "cz"}));
}

TEST(FunctionTemplateTest, BuiltRegionMatchesCelestialCone) {
  auto tmpl = FunctionTemplate::FromXml(workload::kNearbyObjEqTemplateXml);
  ASSERT_TRUE(tmpl.ok());
  auto region = tmpl->BuildRegion(
      {Value::Double(195.1), Value::Double(2.5), Value::Double(12.0)});
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  ASSERT_EQ((*region)->kind(), geometry::ShapeKind::kHypersphere);
  geometry::Hypersphere expected =
      geometry::ConeToHypersphere(195.1, 2.5, 12.0);
  EXPECT_TRUE(geometry::Equals(**region, expected));
}

TEST(FunctionTemplateTest, BuildRegionChecksArity) {
  auto tmpl = FunctionTemplate::FromXml(workload::kNearbyObjEqTemplateXml);
  ASSERT_TRUE(tmpl.ok());
  EXPECT_FALSE(tmpl->BuildRegion({Value::Double(1.0)}).ok());
}

TEST(FunctionTemplateTest, NegativeRadiusRejected) {
  auto tmpl = FunctionTemplate::FromXml(workload::kNearbyObjEqTemplateXml);
  ASSERT_TRUE(tmpl.ok());
  EXPECT_FALSE(tmpl->BuildRegion({Value::Double(1.0), Value::Double(2.0),
                                  Value::Double(-3.0)})
                   .ok());
}

// NaN passed the sign check and an infinite argument made a NaN center;
// the region's bounding box then asserted lo <= hi in a debug build.
TEST(FunctionTemplateTest, NonFiniteArgumentsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto sphere = FunctionTemplate::FromXml(workload::kNearbyObjEqTemplateXml);
  ASSERT_TRUE(sphere.ok());
  for (const std::vector<Value>& args :
       {std::vector<Value>{Value::Double(1), Value::Double(2),
                           Value::Double(nan)},
        std::vector<Value>{Value::Double(inf), Value::Double(2),
                           Value::Double(3)},
        std::vector<Value>{Value::Double(1), Value::Double(-inf),
                           Value::Double(3)}}) {
    EXPECT_FALSE(sphere->BuildRegion(args).ok());
  }
  auto rect = FunctionTemplate::FromXml(workload::kObjFromRectTemplateXml);
  ASSERT_TRUE(rect.ok());
  EXPECT_FALSE(rect->BuildRegion({Value::Double(10.0), Value::Double(nan),
                                  Value::Double(-5.0), Value::Double(5.0)})
                   .ok());
}

TEST(FunctionTemplateTest, RectangleTemplate) {
  auto tmpl = FunctionTemplate::FromXml(workload::kObjFromRectTemplateXml);
  ASSERT_TRUE(tmpl.ok()) << tmpl.status().ToString();
  EXPECT_EQ(tmpl->shape(), geometry::ShapeKind::kHyperrectangle);
  auto region = tmpl->BuildRegion({Value::Double(10.0), Value::Double(20.0),
                                   Value::Double(-5.0), Value::Double(5.0)});
  ASSERT_TRUE(region.ok());
  geometry::Hyperrectangle expected({10.0, -5.0}, {20.0, 5.0});
  EXPECT_TRUE(geometry::Equals(**region, expected));
}

TEST(FunctionTemplateTest, RectangleLoAboveHiRejectedAtBuild) {
  auto tmpl = FunctionTemplate::FromXml(workload::kObjFromRectTemplateXml);
  ASSERT_TRUE(tmpl.ok());
  EXPECT_FALSE(tmpl->BuildRegion({Value::Double(20.0), Value::Double(10.0),
                                  Value::Double(-5.0), Value::Double(5.0)})
                   .ok());
}

TEST(FunctionTemplateTest, PolytopeTemplate) {
  const char* xml_text = R"(<FunctionTemplate>
    <Name>fTriangle</Name>
    <Params><P>$size</P></Params>
    <Shape>polytope</Shape>
    <NumDimensions>2</NumDimensions>
    <Halfspaces>
      <H><Normal><C>-1</C><C>0</C></Normal><Offset>0</Offset></H>
      <H><Normal><C>0</C><C>-1</C></Normal><Offset>0</Offset></H>
      <H><Normal><C>1</C><C>1</C></Normal><Offset>$size</Offset></H>
    </Halfspaces>
    <Vertices>
      <V><C>0</C><C>0</C></V>
      <V><C>$size</C><C>0</C></V>
      <V><C>0</C><C>$size</C></V>
    </Vertices>
    <CoordinateColumns><C>x</C><C>y</C></CoordinateColumns>
  </FunctionTemplate>)";
  auto tmpl = FunctionTemplate::FromXml(xml_text);
  ASSERT_TRUE(tmpl.ok()) << tmpl.status().ToString();
  auto region = tmpl->BuildRegion({Value::Double(4.0)});
  ASSERT_TRUE(region.ok()) << region.status().ToString();
  EXPECT_TRUE((*region)->ContainsPoint({1.0, 1.0}));
  EXPECT_FALSE((*region)->ContainsPoint({3.0, 3.0}));
}

TEST(FunctionTemplateTest, XmlRoundTrip) {
  auto tmpl = FunctionTemplate::FromXml(workload::kNearbyObjEqTemplateXml);
  ASSERT_TRUE(tmpl.ok());
  auto reparsed = FunctionTemplate::FromXml(tmpl->ToXml());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->name(), tmpl->name());
  EXPECT_EQ(reparsed->params(), tmpl->params());
  // Regions built by both agree.
  auto a = tmpl->BuildRegion(
      {Value::Double(10.0), Value::Double(20.0), Value::Double(5.0)});
  auto b = reparsed->BuildRegion(
      {Value::Double(10.0), Value::Double(20.0), Value::Double(5.0)});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(geometry::Equals(**a, **b));
}

TEST(FunctionTemplateTest, RejectsMalformedTemplates) {
  EXPECT_FALSE(FunctionTemplate::FromXml("<Wrong/>").ok());
  EXPECT_FALSE(FunctionTemplate::FromXml(
                   "<FunctionTemplate><Name>f</Name></FunctionTemplate>")
                   .ok());
  // Dimension mismatch between CenterCoordinate and NumDimensions.
  const char* bad_dims = R"(<FunctionTemplate>
    <Name>f</Name><Params><P>$r</P></Params>
    <Shape>hypersphere</Shape><NumDimensions>3</NumDimensions>
    <CenterCoordinate><C>0</C><C>0</C></CenterCoordinate>
    <Radius>$r</Radius>
    <CoordinateColumns><C>x</C><C>y</C><C>z</C></CoordinateColumns>
  </FunctionTemplate>)";
  EXPECT_FALSE(FunctionTemplate::FromXml(bad_dims).ok());
  // Missing coordinate columns.
  const char* no_coords = R"(<FunctionTemplate>
    <Name>f</Name><Params><P>$r</P></Params>
    <Shape>hypersphere</Shape><NumDimensions>1</NumDimensions>
    <CenterCoordinate><C>0</C></CenterCoordinate>
    <Radius>$r</Radius>
  </FunctionTemplate>)";
  EXPECT_FALSE(FunctionTemplate::FromXml(no_coords).ok());
  // Unknown shape.
  const char* bad_shape = R"(<FunctionTemplate>
    <Name>f</Name><Params><P>$r</P></Params>
    <Shape>donut</Shape><NumDimensions>1</NumDimensions>
    <CoordinateColumns><C>x</C></CoordinateColumns>
  </FunctionTemplate>)";
  EXPECT_FALSE(FunctionTemplate::FromXml(bad_shape).ok());
}

// Arguments bind by name, so the second $lo overwrote the first: this
// template built Rect{[7, 8]} from BuildRegion(3, 7), and the proxy would
// have filed the answer to a call whose first argument is 3 under it.
TEST(FunctionTemplateTest, RepeatedParameterRejected) {
  const char* repeated = R"(<FunctionTemplate>
    <Name>f</Name><Params><P>$lo</P><P>$lo</P></Params>
    <Shape>hyperrectangle</Shape><NumDimensions>1</NumDimensions>
    <Lo><C>$lo</C></Lo><Hi><C>$lo + 1</C></Hi>
    <CoordinateColumns><C>x</C></CoordinateColumns>
  </FunctionTemplate>)";
  auto tmpl = FunctionTemplate::FromXml(repeated);
  ASSERT_FALSE(tmpl.ok());
  EXPECT_NE(tmpl.status().message().find("$lo"), std::string::npos)
      << tmpl.status().ToString();
}

TEST(QueryTemplateTest, SplitsSpatialAndNonSpatialParams) {
  auto qt = QueryTemplate::Create(
      "radial", "/radial",
      "SELECT p.objID, p.cx FROM fGetNearbyObjEq($ra, $dec, $radius) AS n "
      "JOIN PhotoPrimary AS p ON n.objID = p.objID WHERE p.r < $maxmag");
  ASSERT_TRUE(qt.ok()) << qt.status().ToString();
  EXPECT_EQ(qt->function_name(), "fGetNearbyObjEq");
  EXPECT_EQ(qt->spatial_params(),
            (std::set<std::string>{"ra", "dec", "radius"}));
  EXPECT_EQ(qt->nonspatial_params(), (std::set<std::string>{"maxmag"}));
  EXPECT_FALSE(qt->has_top());
}

TEST(QueryTemplateTest, RequiresFunctionCallInFrom) {
  EXPECT_FALSE(
      QueryTemplate::Create("t", "/t", "SELECT * FROM PhotoPrimary").ok());
  EXPECT_FALSE(QueryTemplate::Create("t", "/t", "NOT SQL").ok());
}

TEST(QueryTemplateTest, FunctionArgsEvaluated) {
  auto qt = QueryTemplate::Create(
      "t", "/t", "SELECT x FROM f($a, $b * 2, 7)");
  ASSERT_TRUE(qt.ok());
  std::map<std::string, Value> params = {{"a", Value::Double(1.5)},
                                         {"b", Value::Int(3)}};
  auto args = qt->FunctionArgs(params);
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  ASSERT_EQ(args->size(), 3u);
  EXPECT_DOUBLE_EQ((*args)[0].AsDouble(), 1.5);
  EXPECT_EQ((*args)[1].AsInt(), 6);
  EXPECT_EQ((*args)[2].AsInt(), 7);
}

TEST(QueryTemplateTest, NonSpatialFingerprint) {
  auto qt = QueryTemplate::Create(
      "t", "/t", "SELECT x FROM f($a) WHERE y = $b AND z = $c");
  ASSERT_TRUE(qt.ok());
  std::map<std::string, Value> p1 = {{"a", Value::Int(1)},
                                     {"b", Value::Int(2)},
                                     {"c", Value::Int(3)}};
  std::map<std::string, Value> p2 = {{"a", Value::Int(99)},
                                     {"b", Value::Int(2)},
                                     {"c", Value::Int(3)}};
  std::map<std::string, Value> p3 = {{"a", Value::Int(1)},
                                     {"b", Value::Int(2)},
                                     {"c", Value::Int(4)}};
  // Same non-spatial params -> same fingerprint even with different spatial.
  EXPECT_EQ(*qt->NonSpatialFingerprint(p1), *qt->NonSpatialFingerprint(p2));
  EXPECT_NE(*qt->NonSpatialFingerprint(p1), *qt->NonSpatialFingerprint(p3));
  // Missing parameter -> error.
  EXPECT_FALSE(qt->NonSpatialFingerprint({{"a", Value::Int(1)}}).ok());
}

TEST(QueryTemplateTest, InstantiateProducesExecutableStatement) {
  auto qt = QueryTemplate::Create(
      "t", "/t", "SELECT x FROM f($a) WHERE y < $b");
  ASSERT_TRUE(qt.ok());
  auto stmt = qt->Instantiate(
      {{"a", Value::Double(2.0)}, {"b", Value::Int(10)}});
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(stmt->HasParameters());
}

TEST(TemplateRegistryTest, RegisterAndLookup) {
  TemplateRegistry registry;
  ASSERT_TRUE(registry
                  .RegisterFunctionTemplateXml(workload::kNearbyObjEqTemplateXml)
                  .ok());
  auto qt = QueryTemplate::Create("radial", "/radial",
                                  workload::kRadialTemplateSql);
  ASSERT_TRUE(qt.ok());
  ASSERT_TRUE(registry.RegisterQueryTemplate(std::move(*qt)).ok());

  EXPECT_NE(registry.FindByPath("/radial"), nullptr);
  EXPECT_EQ(registry.FindByPath("/nope"), nullptr);
  EXPECT_NE(registry.FindById("radial"), nullptr);
  EXPECT_NE(registry.FindFunctionTemplate("fGetNearbyObjEq"), nullptr);
  EXPECT_NE(registry.FindFunctionTemplate("DBO.fgetnearbyobjeq"), nullptr);
  EXPECT_EQ(registry.FindFunctionTemplate("fOther"), nullptr);
  EXPECT_EQ(registry.num_query_templates(), 1u);
  EXPECT_EQ(registry.num_function_templates(), 1u);
}

TEST(TemplateRegistryTest, DuplicateQueryTemplateRejected) {
  TemplateRegistry registry;
  auto qt1 = QueryTemplate::Create("radial", "/radial",
                                   workload::kRadialTemplateSql);
  auto qt2 = QueryTemplate::Create("radial", "/radial2",
                                   workload::kRadialTemplateSql);
  ASSERT_TRUE(qt1.ok());
  ASSERT_TRUE(qt2.ok());
  EXPECT_TRUE(registry.RegisterQueryTemplate(std::move(*qt1)).ok());
  EXPECT_FALSE(registry.RegisterQueryTemplate(std::move(*qt2)).ok());
}

TEST(TemplateRegistryTest, InfoFileAssociation) {
  TemplateRegistry registry;
  std::string info = std::string("<TemplateInfo><Id>radial</Id>") +
                     "<FormPath>/radial</FormPath><QueryTemplate>" +
                     "SELECT p.objID FROM fGetNearbyObjEq($ra, $dec, $radius) "
                     "AS n JOIN PhotoPrimary AS p ON n.objID = p.objID" +
                     "</QueryTemplate></TemplateInfo>";
  ASSERT_TRUE(registry.RegisterInfoXml(info).ok());
  const QueryTemplate* qt = registry.FindByPath("/radial");
  ASSERT_NE(qt, nullptr);
  EXPECT_EQ(qt->function_name(), "fGetNearbyObjEq");

  EXPECT_FALSE(registry.RegisterInfoXml("<Nope/>").ok());
  EXPECT_FALSE(
      registry.RegisterInfoXml("<TemplateInfo><Id>x</Id></TemplateInfo>").ok());
}

}  // namespace
}  // namespace fnproxy::core
