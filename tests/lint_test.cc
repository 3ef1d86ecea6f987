// Golden-diagnostic tests for the template linter: one fixture per check-id
// under tests/lint_fixtures/, plus the guarantee that every shipped example
// template in examples/templates/ lints clean.
#include "lint/lint.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace fnproxy::lint {
namespace {

#ifndef FNPROXY_LINT_FIXTURE_DIR
#error "FNPROXY_LINT_FIXTURE_DIR must be defined by the build"
#endif
#ifndef FNPROXY_EXAMPLE_TEMPLATE_DIR
#error "FNPROXY_EXAMPLE_TEMPLATE_DIR must be defined by the build"
#endif

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

LintResult LintFixture(const std::string& name) {
  const std::string path =
      std::string(FNPROXY_LINT_FIXTURE_DIR) + "/" + name;
  return LintTemplateFile(name, ReadFileOrDie(path));
}

/// One expected diagnostic: exact line, severity and check-id, plus a
/// substring the message must contain.
struct Expected {
  size_t line;
  Severity severity;
  std::string check_id;
  std::string message_part;
};

void ExpectDiagnostics(const std::string& fixture,
                       const std::vector<Expected>& expected) {
  SCOPED_TRACE(fixture);
  const LintResult result = LintFixture(fixture);
  ASSERT_EQ(result.diagnostics.size(), expected.size())
      << result.FormatDiagnostics();
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE(std::string("diagnostic #") + std::to_string(i));
    const Diagnostic& got = result.diagnostics[i];
    EXPECT_EQ(got.line, expected[i].line);
    EXPECT_EQ(got.severity, expected[i].severity);
    EXPECT_EQ(got.check_id, expected[i].check_id);
    EXPECT_NE(got.message.find(expected[i].message_part), std::string::npos)
        << "message '" << got.message << "' does not contain '"
        << expected[i].message_part << "'";
  }
}

TEST(LintDiagnosticTest, ToStringFormat) {
  Diagnostic d;
  d.file = "templates/radial.xml";
  d.line = 7;
  d.severity = Severity::kError;
  d.check_id = "unbound-param";
  d.message = "geometry expression references $r";
  EXPECT_EQ(d.ToString(),
            "templates/radial.xml:7: error [unbound-param] geometry "
            "expression references $r");
  d.severity = Severity::kWarning;
  EXPECT_EQ(d.ToString(),
            "templates/radial.xml:7: warning [unbound-param] geometry "
            "expression references $r");
}

TEST(LintDiagnosticTest, HasErrorsDistinguishesSeverity) {
  LintResult result;
  EXPECT_FALSE(result.HasErrors());
  result.diagnostics.push_back({"f", 1, 0, Severity::kWarning, "x", "m"});
  EXPECT_FALSE(result.HasErrors());
  result.diagnostics.push_back({"f", 1, 0, Severity::kError, "x", "m"});
  EXPECT_TRUE(result.HasErrors());
}

TEST(LintFixtureTest, ParseError) {
  ExpectDiagnostics(
      "parse_error.xml",
      {{6, Severity::kError, "parse-error", "<CenterCoordinate> expression"},
       // The malformed expression contributes no parameter uses, so $ra is
       // also reported as unused.
       {3, Severity::kWarning, "unused-param", "$ra"}});
}

TEST(LintFixtureTest, ShapeDims) {
  ExpectDiagnostics("shape_dims.xml",
                    {{6, Severity::kError, "shape-dims",
                      "lists 2 expressions but <NumDimensions> is 3"}});
}

TEST(LintFixtureTest, UnboundParam) {
  ExpectDiagnostics(
      "unbound_param.xml",
      {{7, Severity::kError, "unbound-param", "$radius_arcmin"},
       {3, Severity::kWarning, "unused-param", "$radius"}});
}

TEST(LintFixtureTest, UnusedParam) {
  ExpectDiagnostics("unused_param.xml",
                    {{3, Severity::kWarning, "unused-param", "$magnitude"}});
}

TEST(LintFixtureTest, RadiusNonpositive) {
  ExpectDiagnostics("radius_nonpositive.xml",
                    {{7, Severity::kError, "radius-nonpositive",
                      "negative constant"}});
}

TEST(LintFixtureTest, SqlParamUndeclared) {
  ExpectDiagnostics("sql_param_undeclared.xml",
                    {{5, Severity::kError, "sql-param-undeclared", "$radius"}});
}

TEST(LintFixtureTest, SqlParamUnused) {
  ExpectDiagnostics("sql_param_unused.xml",
                    {{4, Severity::kWarning, "sql-param-unused", "$limit"}});
}

TEST(LintFixtureTest, CallArity) {
  ExpectDiagnostics("call_arity.xml",
                    {{15, Severity::kError, "call-arity",
                      "called with 2 arguments but its function template "
                      "declares 3 parameters"}});
}

TEST(LintFixtureTest, DisjointRegions) {
  const LintResult result = LintFixture("disjoint_regions.xml");
  ASSERT_EQ(result.diagnostics.size(), 1u) << result.FormatDiagnostics();
  const Diagnostic& got = result.diagnostics[0];
  EXPECT_EQ(got.severity, Severity::kWarning);
  EXPECT_EQ(got.check_id, "disjoint-regions");
  EXPECT_NE(got.message.find("pairwise disjoint"), std::string::npos);
  EXPECT_FALSE(result.HasErrors());
}

TEST(LintFixtureTest, CleanTemplateSetHasNoDiagnostics) {
  const LintResult result = LintFixture("clean.xml");
  EXPECT_TRUE(result.diagnostics.empty()) << result.FormatDiagnostics();
}

TEST(LintFixtureTest, NonXmlContentIsOneParseError) {
  const LintResult result = LintTemplateFile("garbage.xml", "not xml at all");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].check_id, "parse-error");
  EXPECT_TRUE(result.HasErrors());
}

TEST(LintFixtureTest, UnexpectedRootIsOneParseError) {
  const LintResult result =
      LintTemplateFile("table.xml", "<Table><Row/></Table>");
  ASSERT_EQ(result.diagnostics.size(), 1u);
  EXPECT_EQ(result.diagnostics[0].check_id, "parse-error");
  EXPECT_NE(result.diagnostics[0].message.find("unexpected root element"),
            std::string::npos);
}

/// Every template file shipped under examples/templates/ must lint clean —
/// they are the reference forms users copy, and CI runs fnproxy_lint over
/// the same directory.
TEST(LintExamplesTest, ShippedExampleTemplatesLintClean) {
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           FNPROXY_EXAMPLE_TEMPLATE_DIR)) {
    if (entry.path().extension() != ".xml") continue;
    ++files;
    SCOPED_TRACE(entry.path().string());
    const LintResult result = LintTemplateFile(
        entry.path().filename().string(), ReadFileOrDie(entry.path().string()));
    EXPECT_TRUE(result.diagnostics.empty()) << result.FormatDiagnostics();
  }
  EXPECT_GE(files, 4u) << "expected the shipped example templates";
}

}  // namespace
}  // namespace fnproxy::lint
