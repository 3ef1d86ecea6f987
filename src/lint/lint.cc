#include "lint/lint.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>

#include "core/function_template.h"
#include "geometry/region.h"
#include "sql/ast.h"
#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/value.h"
#include "util/status.h"
#include "xml/xml.h"

namespace fnproxy::lint {

bool LintResult::HasErrors() const { return lint::HasErrors(diagnostics); }

std::string LintResult::FormatDiagnostics() const {
  return lint::FormatDiagnostics(diagnostics);
}

namespace {

using sql::Expr;
using xml::XmlElement;

bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_' ||
         c == ':' || c == '-' || c == '.';
}

/// Maps element occurrences in the raw text to 1-based line numbers. The XML
/// tree drops source positions, so diagnostics are anchored by re-finding the
/// n-th `<Tag` occurrence inside the byte range of the template being linted.
class Locator {
 public:
  explicit Locator(std::string_view text) : text_(text) {}

  size_t LineOfOffset(size_t offset) const {
    offset = std::min(offset, text_.size());
    return 1 + static_cast<size_t>(
                   std::count(text_.begin(), text_.begin() + offset, '\n'));
  }

  /// 1-based column of `offset` within its line.
  size_t ColumnOfOffset(size_t offset) const {
    offset = std::min(offset, text_.size());
    size_t line_start = text_.rfind('\n', offset == 0 ? 0 : offset - 1);
    if (offset == 0 || line_start == std::string_view::npos) line_start = 0;
    else ++line_start;
    return offset - line_start + 1;
  }

  /// Byte offset of the (skip+1)-th occurrence of the open tag `<tag` at or
  /// after `from`, or npos.
  size_t FindTag(std::string_view tag, size_t from, size_t skip = 0) const {
    std::string needle = "<";
    needle += tag;
    size_t pos = from;
    while (pos < text_.size()) {
      pos = text_.find(needle, pos);
      if (pos == std::string_view::npos) return std::string_view::npos;
      size_t after = pos + needle.size();
      if (after >= text_.size() || !IsNameChar(text_[after])) {
        if (skip == 0) return pos;
        --skip;
      }
      pos = after;
    }
    return std::string_view::npos;
  }

 private:
  std::string_view text_;
};

/// Line + column a diagnostic anchors to. Implicitly constructible from a
/// bare line number (column unknown) so whole-template findings can keep
/// passing `start_line`.
struct Anchor {
  size_t line = 0;
  size_t column = 0;

  // NOLINTNEXTLINE(google-explicit-constructor)
  Anchor(size_t l) : line(l) {}
  Anchor(size_t l, size_t c) : line(l), column(c) {}
};

/// One template element being linted: its byte range in the file plus the
/// diagnostic sink.
struct TemplateContext {
  const std::string* path = nullptr;
  const Locator* loc = nullptr;
  size_t start = 0;
  size_t end = 0;
  std::vector<Diagnostic>* diags = nullptr;

  /// Anchor of the (skip+1)-th `<tag` inside this template; falls back to
  /// the template's first line when the tag cannot be re-found in the raw
  /// text. The column feeds the deterministic same-line ordering of
  /// StabilizeDiagnosticOrder; it is never printed.
  Anchor TagLine(std::string_view tag, size_t skip = 0) const {
    size_t pos = loc->FindTag(tag, start, skip);
    if (pos == std::string_view::npos || pos >= end) {
      return Anchor(loc->LineOfOffset(start));
    }
    return Anchor(loc->LineOfOffset(pos), loc->ColumnOfOffset(pos));
  }

  void Add(Severity severity, std::string check_id, std::string message,
           Anchor anchor) const {
    Diagnostic d;
    d.file = *path;
    d.line = anchor.line;
    d.column = anchor.column;
    d.severity = severity;
    d.check_id = std::move(check_id);
    d.message = std::move(message);
    diags->push_back(std::move(d));
  }

  void Error(std::string check_id, std::string message, Anchor anchor) const {
    Add(Severity::kError, std::move(check_id), std::move(message), anchor);
  }
  void Warn(std::string check_id, std::string message, Anchor anchor) const {
    Add(Severity::kWarning, std::move(check_id), std::move(message), anchor);
  }
};

std::string Trimmed(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return std::string(s.substr(b, e - b));
}

/// Case-folded function name with any "dbo." prefix removed, mirroring the
/// registry's keying so call-arity matches what registration would match.
std::string NormalizeFnName(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (out.rfind("dbo.", 0) == 0) out.erase(0, 4);
  return out;
}

void CollectExprParams(const Expr& expr, std::set<std::string>& out) {
  if (expr.kind == Expr::Kind::kParameter) out.insert(expr.name);
  for (const auto& child : expr.children) CollectExprParams(*child, out);
}

void CollectExprColumns(const Expr& expr, std::set<std::string>& out) {
  if (expr.kind == Expr::Kind::kColumnRef) {
    out.insert(expr.qualifier.empty() ? expr.name
                                      : expr.qualifier + "." + expr.name);
  }
  for (const auto& child : expr.children) CollectExprColumns(*child, out);
}

void CollectStatementParams(const sql::SelectStatement& stmt,
                            std::set<std::string>& out) {
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr != nullptr) CollectExprParams(*item.expr, out);
  }
  for (const auto& arg : stmt.from.args) CollectExprParams(*arg, out);
  for (const sql::JoinClause& join : stmt.joins) {
    for (const auto& arg : join.table.args) CollectExprParams(*arg, out);
    if (join.condition != nullptr) CollectExprParams(*join.condition, out);
  }
  if (stmt.where != nullptr) CollectExprParams(*stmt.where, out);
  for (const sql::OrderItem& item : stmt.order_by) {
    CollectExprParams(*item.expr, out);
  }
}

/// Evaluates a parameter- and column-free expression to a number;
/// nullopt when the expression is not a foldable constant.
std::optional<double> FoldConstant(const Expr& expr) {
  std::set<std::string> params, columns;
  CollectExprParams(expr, params);
  CollectExprColumns(expr, columns);
  if (!params.empty() || !columns.empty()) return std::nullopt;
  sql::ScalarFunctionRegistry registry =
      sql::ScalarFunctionRegistry::WithBuiltins();
  sql::ExprEvaluator evaluator(&registry);
  sql::RowBinding no_rows;
  util::StatusOr<sql::Value> value = evaluator.Eval(expr, no_rows);
  if (!value.ok()) return std::nullopt;
  util::StatusOr<double> numeric = value->ToNumeric();
  if (!numeric.ok()) return std::nullopt;
  return *numeric;
}

/// All child elements of `parent`, in order (the template format allows any
/// child element name — <P>, <C>, <1>, <2>, ... — inside list containers).
std::vector<const XmlElement*> ListChildren(const XmlElement& parent) {
  std::vector<const XmlElement*> out;
  out.reserve(parent.children().size());
  for (const auto& child : parent.children()) out.push_back(child.get());
  return out;
}

/// Context accumulated while linting one geometry expression.
struct GeometryExprScope {
  const TemplateContext& ctx;
  const std::set<std::string>& declared;
  std::set<std::string>* used;
  std::set<std::string>* reported_unbound;
  std::set<std::string>* reported_columns;

  /// Parses and cross-checks one geometry expression; returns the parsed
  /// tree (nullptr after emitting parse-error).
  std::unique_ptr<Expr> Check(const std::string& text, std::string_view tag,
                              size_t tag_skip) const {
    util::StatusOr<std::unique_ptr<Expr>> parsed =
        sql::ParseExpression(Trimmed(text));
    const Anchor line = ctx.TagLine(tag, tag_skip);
    if (!parsed.ok()) {
      ctx.Error("parse-error",
                "cannot parse <" + std::string(tag) +
                    "> expression: " + parsed.status().message(),
                line);
      return nullptr;
    }
    std::set<std::string> params, columns;
    CollectExprParams(**parsed, params);
    CollectExprColumns(**parsed, columns);
    for (const std::string& p : params) {
      used->insert(p);
      if (declared.count(p) == 0 && reported_unbound->insert(p).second) {
        ctx.Error("unbound-param",
                  "geometry expression references $" + p +
                      ", which is not in <Params>",
                  line);
      }
    }
    for (const std::string& c : columns) {
      if (reported_columns->insert(c).second) {
        ctx.Error("unbound-param",
                  "geometry expression references identifier '" + c +
                      "', which is not a $-parameter and can never be bound",
                  line);
      }
    }
    return std::move(*parsed);
  }
};

/// Samples concrete parameter bindings for the (so far defect-free) template
/// and warns when every sampled region pair — including pairs whose bindings
/// differ only infinitesimally — is disjoint: such a template can never get a
/// containment or overlap cache hit, so every request becomes an origin miss.
void CheckDisjointRegions(const XmlElement& elem, const TemplateContext& ctx,
                          size_t num_params) {
  util::StatusOr<core::FunctionTemplate> tmpl =
      core::FunctionTemplate::FromXml(elem.ToString());
  if (!tmpl.ok() || num_params == 0) return;

  // Deterministic LCG so the lint output is stable across runs.
  uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next_double = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    double unit = static_cast<double>((state >> 11) & ((1ull << 53) - 1)) /
                  static_cast<double>(1ull << 53);
    return 0.5 + 9.0 * unit;
  };

  std::vector<std::vector<sql::Value>> bindings;
  // An ascending binding first: templates binding (lo, hi) parameter pairs
  // in the conventional order get at least one lo < hi sample.
  std::vector<sql::Value> ascending;
  for (size_t i = 0; i < num_params; ++i) {
    ascending.push_back(sql::Value::Double(1.0 + 2.0 * static_cast<double>(i)));
  }
  bindings.push_back(std::move(ascending));
  for (int sample = 0; sample < 11; ++sample) {
    std::vector<sql::Value> binding;
    for (size_t i = 0; i < num_params; ++i) {
      binding.push_back(sql::Value::Double(next_double()));
    }
    bindings.push_back(std::move(binding));
  }

  std::vector<std::unique_ptr<geometry::Region>> regions;
  for (const std::vector<sql::Value>& binding : bindings) {
    util::StatusOr<std::unique_ptr<geometry::Region>> base =
        tmpl->BuildRegion(binding);
    if (!base.ok()) continue;  // Invalid sample (e.g. lo > hi); try others.
    regions.push_back(std::move(*base));
    // The perturbed twin: a minimally different binding. A healthy template
    // yields a region overlapping its twin's.
    std::vector<sql::Value> twin;
    for (const sql::Value& v : binding) {
      twin.push_back(sql::Value::Double(v.AsDouble() + 1e-3));
    }
    util::StatusOr<std::unique_ptr<geometry::Region>> shifted =
        tmpl->BuildRegion(twin);
    if (shifted.ok()) regions.push_back(std::move(*shifted));
  }
  if (regions.size() < 2) return;  // Not enough valid samples to judge.

  for (size_t i = 0; i < regions.size(); ++i) {
    for (size_t j = i + 1; j < regions.size(); ++j) {
      if (geometry::Intersects(*regions[i], *regions[j])) return;
    }
  }
  ctx.Warn("disjoint-regions",
           std::string("all ") + std::to_string(regions.size()) +
               " regions built from sampled parameter bindings (including "
               "minimally perturbed ones) are pairwise disjoint; no "
               "containment or overlap cache hit is possible",
           ctx.TagLine("Shape"));
}

/// Lints one <FunctionTemplate>. Records the template's arity in
/// `arities` for cross-template call-arity checking.
void LintFunctionTemplate(const XmlElement& elem, const TemplateContext& ctx,
                          std::map<std::string, size_t>& arities) {
  const size_t start_line = ctx.loc->LineOfOffset(ctx.start);
  bool has_errors = false;
  size_t diags_before = ctx.diags->size();

  // <Name>
  const XmlElement* name_elem = elem.FindChild("Name");
  std::string name = name_elem != nullptr ? Trimmed(name_elem->text()) : "";
  if (name.empty()) {
    ctx.Error("parse-error", "function template is missing a non-empty <Name>",
              start_line);
  }

  // <Params>
  std::set<std::string> declared;
  std::vector<std::string> declared_order;
  const XmlElement* params_elem = elem.FindChild("Params");
  if (params_elem == nullptr) {
    ctx.Error("parse-error", "function template is missing <Params>",
              start_line);
  } else {
    size_t index = 0;
    for (const XmlElement* p : ListChildren(*params_elem)) {
      std::string text = Trimmed(p->text());
      if (!text.empty() && text[0] == '$') text.erase(0, 1);
      const Anchor line = ctx.TagLine("P", index);
      if (text.empty()) {
        ctx.Error("parse-error", "empty parameter name in <Params>", line);
      } else if (!declared.insert(text).second) {
        ctx.Error("parse-error", "duplicate parameter $" + text + " in <Params>",
                  line);
      } else {
        declared_order.push_back(text);
      }
      ++index;
    }
  }
  if (!name.empty()) arities[NormalizeFnName(name)] = declared.size();

  // <Shape>
  geometry::ShapeKind shape = geometry::ShapeKind::kHypersphere;
  bool shape_known = false;
  const XmlElement* shape_elem = elem.FindChild("Shape");
  if (shape_elem == nullptr) {
    ctx.Error("parse-error", "function template is missing <Shape>",
              start_line);
  } else {
    std::string text = NormalizeFnName(Trimmed(shape_elem->text()));
    if (text == "hypersphere") {
      shape = geometry::ShapeKind::kHypersphere;
      shape_known = true;
    } else if (text == "hyperrectangle" || text == "hypercube") {
      shape = geometry::ShapeKind::kHyperrectangle;
      shape_known = true;
    } else if (text == "polytope") {
      shape = geometry::ShapeKind::kPolytope;
      shape_known = true;
    } else {
      ctx.Error("shape-dims",
                "unknown shape '" + Trimmed(shape_elem->text()) +
                    "' (expected hypersphere, hyperrectangle, hypercube or "
                    "polytope)",
                ctx.TagLine("Shape"));
    }
  }

  // <NumDimensions>
  size_t dims = 0;
  const XmlElement* dims_elem = elem.FindChild("NumDimensions");
  if (dims_elem == nullptr) {
    ctx.Error("parse-error", "function template is missing <NumDimensions>",
              start_line);
  } else {
    const std::string text = Trimmed(dims_elem->text());
    char* endp = nullptr;
    long value = std::strtol(text.c_str(), &endp, 10);
    if (text.empty() || endp == nullptr || *endp != '\0') {
      ctx.Error("parse-error",
                "<NumDimensions> is not an integer: '" + text + "'",
                ctx.TagLine("NumDimensions"));
    } else if (value < 1 || value > 16) {
      ctx.Error("shape-dims",
                "<NumDimensions> must be in [1, 16], got " + text,
                ctx.TagLine("NumDimensions"));
    } else {
      dims = static_cast<size_t>(value);
    }
  }

  // <CoordinateColumns>
  const XmlElement* coords_elem = elem.FindChild("CoordinateColumns");
  if (coords_elem == nullptr) {
    ctx.Error("parse-error",
              "function template is missing <CoordinateColumns>", start_line);
  } else if (dims != 0 && ListChildren(*coords_elem).size() != dims) {
    ctx.Error("shape-dims",
              std::string("<CoordinateColumns> lists ") +
                  std::to_string(ListChildren(*coords_elem).size()) +
                  " columns but <NumDimensions> is " + std::to_string(dims),
              ctx.TagLine("CoordinateColumns"));
  }

  // Geometry expressions.
  std::set<std::string> used, reported_unbound, reported_columns;
  GeometryExprScope scope{ctx, declared, &used, &reported_unbound,
                          &reported_columns};

  auto check_list = [&](const XmlElement& parent, std::string_view list_tag) {
    const std::vector<const XmlElement*> items = ListChildren(parent);
    if (dims != 0 && items.size() != dims) {
      ctx.Error("shape-dims",
                "<" + std::string(list_tag) + "> lists " +
                    std::to_string(items.size()) +
                    " expressions but <NumDimensions> is " +
                    std::to_string(dims),
                ctx.TagLine(list_tag));
    }
    for (const XmlElement* item : items) {
      scope.Check(item->text(), list_tag, 0);
    }
  };

  if (shape_known) {
    switch (shape) {
      case geometry::ShapeKind::kHypersphere: {
        const XmlElement* center = elem.FindChild("CenterCoordinate");
        if (center == nullptr) {
          ctx.Error("parse-error",
                    "hypersphere template is missing <CenterCoordinate>",
                    start_line);
        } else {
          check_list(*center, "CenterCoordinate");
        }
        const XmlElement* radius = elem.FindChild("Radius");
        if (radius == nullptr) {
          ctx.Error("parse-error", "hypersphere template is missing <Radius>",
                    start_line);
        } else {
          std::unique_ptr<Expr> expr = scope.Check(radius->text(), "Radius", 0);
          if (expr != nullptr) {
            std::optional<double> value = FoldConstant(*expr);
            if (value.has_value() && *value < -1e-12) {
              ctx.Error("radius-nonpositive",
                        "<Radius> is a negative constant; the region is "
                        "empty for every binding",
                        ctx.TagLine("Radius"));
            } else if (value.has_value() && *value < 1e-12) {
              ctx.Warn("radius-nonpositive",
                       "<Radius> is constant zero; the region is a single "
                       "point for every binding",
                       ctx.TagLine("Radius"));
            }
          }
        }
        break;
      }
      case geometry::ShapeKind::kHyperrectangle: {
        const XmlElement* lo = elem.FindChild("Lo");
        const XmlElement* hi = elem.FindChild("Hi");
        if (lo == nullptr || hi == nullptr) {
          ctx.Error("parse-error",
                    "hyperrectangle template needs both <Lo> and <Hi>",
                    start_line);
        } else {
          check_list(*lo, "Lo");
          check_list(*hi, "Hi");
        }
        break;
      }
      case geometry::ShapeKind::kPolytope: {
        const XmlElement* halfspaces = elem.FindChild("Halfspaces");
        const XmlElement* vertices = elem.FindChild("Vertices");
        if (halfspaces == nullptr || vertices == nullptr) {
          ctx.Error("parse-error",
                    "polytope template needs both <Halfspaces> and <Vertices>",
                    start_line);
          break;
        }
        if (ListChildren(*halfspaces).empty() ||
            ListChildren(*vertices).empty()) {
          ctx.Error("parse-error", "polytope template has empty geometry",
                    start_line);
        }
        size_t h_index = 0;
        for (const XmlElement* h : ListChildren(*halfspaces)) {
          const XmlElement* normal = h->FindChild("Normal");
          const XmlElement* offset = h->FindChild("Offset");
          const Anchor line = ctx.TagLine("H", h_index);
          if (normal == nullptr || offset == nullptr) {
            ctx.Error("parse-error",
                      "halfspace needs both <Normal> and <Offset>", line);
          } else {
            const std::vector<const XmlElement*> comps = ListChildren(*normal);
            if (dims != 0 && comps.size() != dims) {
              ctx.Error("shape-dims",
                        std::string("halfspace <Normal> lists ") +
                            std::to_string(comps.size()) +
                            " components but <NumDimensions> is " +
                            std::to_string(dims),
                        ctx.TagLine("Normal", h_index));
            }
            for (const XmlElement* c : comps) {
              scope.Check(c->text(), "Normal", h_index);
            }
            scope.Check(offset->text(), "Offset", h_index);
          }
          ++h_index;
        }
        size_t v_index = 0;
        for (const XmlElement* v : ListChildren(*vertices)) {
          const std::vector<const XmlElement*> comps = ListChildren(*v);
          if (dims != 0 && comps.size() != dims) {
            ctx.Error("shape-dims",
                      std::string("vertex lists ") +
                          std::to_string(comps.size()) +
                          " coordinates but <NumDimensions> is " +
                          std::to_string(dims),
                      ctx.TagLine("V", v_index));
          }
          for (const XmlElement* c : comps) {
            scope.Check(c->text(), "V", v_index);
          }
          ++v_index;
        }
        break;
      }
    }
  }

  // unused-param: declared but feeding no geometry expression.
  for (size_t i = 0; i < declared_order.size(); ++i) {
    const std::string& p = declared_order[i];
    if (used.count(p) == 0) {
      ctx.Warn("unused-param",
               "parameter $" + p +
                   " is declared but not used by any geometry expression",
               ctx.TagLine("P", i));
    }
  }

  for (size_t i = diags_before; i < ctx.diags->size(); ++i) {
    if ((*ctx.diags)[i].severity == Severity::kError) has_errors = true;
  }
  if (!has_errors) {
    CheckDisjointRegions(elem, ctx, declared_order.size());
  }
}

/// Lints one <TemplateInfo>: the query template SQL plus its declared
/// parameter list, cross-checked against function templates in `arities`.
void LintTemplateInfo(const XmlElement& elem, const TemplateContext& ctx,
                      const std::map<std::string, size_t>& arities) {
  const size_t start_line = ctx.loc->LineOfOffset(ctx.start);

  for (const char* required : {"Id", "FormPath"}) {
    const XmlElement* child = elem.FindChild(required);
    if (child == nullptr || Trimmed(child->text()).empty()) {
      ctx.Error("parse-error",
                std::string("template info is missing a non-empty <") +
                    required + ">",
                start_line);
    }
  }

  const XmlElement* query = elem.FindChild("QueryTemplate");
  if (query == nullptr || Trimmed(query->text()).empty()) {
    ctx.Error("parse-error",
              "template info is missing a non-empty <QueryTemplate>",
              start_line);
    return;
  }
  const Anchor query_line = ctx.TagLine("QueryTemplate");

  util::StatusOr<sql::SelectStatement> stmt =
      sql::ParseSelect(Trimmed(query->text()));
  if (!stmt.ok()) {
    ctx.Error("parse-error",
              "cannot parse <QueryTemplate> SQL: " + stmt.status().message(),
              query_line);
    return;
  }

  if (stmt->from.kind != sql::TableRef::Kind::kFunctionCall) {
    ctx.Error("parse-error",
              "FROM source '" + stmt->from.name +
                  "' is not a table-valued function call; the template "
                  "cannot be proxied",
              query_line);
  } else {
    // call-arity against function templates declared in the same file.
    auto it = arities.find(NormalizeFnName(stmt->from.name));
    if (it != arities.end() && stmt->from.args.size() != it->second) {
      ctx.Error("call-arity",
                stmt->from.name + " is called with " +
                    std::to_string(stmt->from.args.size()) +
                    " arguments but its function template declares " +
                    std::to_string(it->second) + " parameters",
                query_line);
    }
  }

  std::set<std::string> used;
  CollectStatementParams(*stmt, used);

  // Declared parameter list (optional): cross-check both directions.
  const XmlElement* params_elem = elem.FindChild("Params");
  if (params_elem == nullptr) return;
  std::set<std::string> declared;
  std::vector<std::string> declared_order;
  for (const XmlElement* p : ListChildren(*params_elem)) {
    std::string text = Trimmed(p->text());
    if (!text.empty() && text[0] == '$') text.erase(0, 1);
    if (!text.empty() && declared.insert(text).second) {
      declared_order.push_back(text);
    }
  }
  for (const std::string& p : used) {
    if (declared.count(p) == 0) {
      ctx.Error("sql-param-undeclared",
                "query uses $" + p +
                    ", which is not in the declared <Params> list",
                query_line);
    }
  }
  for (size_t i = 0; i < declared_order.size(); ++i) {
    if (used.count(declared_order[i]) == 0) {
      ctx.Warn("sql-param-unused",
               "declared parameter $" + declared_order[i] +
                   " is not used by the query",
               ctx.TagLine("P", i));
    }
  }
}

}  // namespace

LintResult LintTemplateFile(const std::string& path,
                            std::string_view content) {
  LintResult result;
  Locator locator(content);

  auto file_error = [&](std::string message, size_t line) {
    Diagnostic d;
    d.file = path;
    d.line = line;
    d.severity = Severity::kError;
    d.check_id = "parse-error";
    d.message = std::move(message);
    result.diagnostics.push_back(std::move(d));
  };

  util::StatusOr<std::unique_ptr<XmlElement>> root = xml::ParseXml(content);
  if (!root.ok()) {
    file_error("cannot parse XML: " + root.status().message(), 1);
    return result;
  }

  // Flatten to the list of template elements to lint, locating each element's
  // byte range via the n-th occurrence of its open tag in the raw text.
  struct Item {
    const XmlElement* elem;
    size_t start;
    size_t end;
  };
  std::vector<Item> items;
  const std::string& root_name = (*root)->name();
  if (root_name == "FunctionTemplate" || root_name == "TemplateInfo") {
    size_t start = locator.FindTag(root_name, 0);
    if (start == std::string_view::npos) start = 0;
    items.push_back({root->get(), start, content.size()});
  } else if (root_name == "TemplateSet") {
    std::map<std::string, size_t> seen;
    for (const auto& child : (*root)->children()) {
      if (child->name() != "FunctionTemplate" &&
          child->name() != "TemplateInfo") {
        size_t pos = locator.FindTag(child->name(), 0, seen[child->name()]);
        seen[child->name()] += 1;
        file_error("unexpected <" + child->name() +
                       "> in <TemplateSet> (expected <FunctionTemplate> or "
                       "<TemplateInfo>)",
                   pos == std::string_view::npos ? 1
                                                 : locator.LineOfOffset(pos));
        continue;
      }
      size_t start = locator.FindTag(child->name(), 0, seen[child->name()]);
      seen[child->name()] += 1;
      if (start == std::string_view::npos) start = 0;
      items.push_back({child.get(), start, content.size()});
    }
    // Each element's range ends where the next one begins, so tag searches
    // never leak into a later template.
    std::vector<size_t> starts;
    starts.reserve(items.size());
    for (const Item& item : items) starts.push_back(item.start);
    for (Item& item : items) {
      for (size_t s : starts) {
        if (s > item.start && s < item.end) item.end = s;
      }
    }
  } else {
    file_error("unexpected root element <" + root_name +
                   "> (expected <FunctionTemplate>, <TemplateInfo> or "
                   "<TemplateSet>)",
               1);
    return result;
  }

  // First pass: collect function-template arities so a <TemplateInfo> can be
  // checked against a <FunctionTemplate> declared later in the same set.
  std::map<std::string, size_t> arities;
  for (const Item& item : items) {
    if (item.elem->name() != "FunctionTemplate") continue;
    const XmlElement* name_elem = item.elem->FindChild("Name");
    const XmlElement* params_elem = item.elem->FindChild("Params");
    if (name_elem == nullptr || params_elem == nullptr) continue;
    std::string name = Trimmed(name_elem->text());
    if (!name.empty()) {
      arities[NormalizeFnName(name)] = params_elem->children().size();
    }
  }

  for (const Item& item : items) {
    TemplateContext ctx;
    ctx.path = &path;
    ctx.loc = &locator;
    ctx.start = item.start;
    ctx.end = item.end;
    ctx.diags = &result.diagnostics;
    if (item.elem->name() == "FunctionTemplate") {
      LintFunctionTemplate(*item.elem, ctx, arities);
    } else {
      LintTemplateInfo(*item.elem, ctx, arities);
    }
  }
  // Several findings can anchor to one line (e.g. a parameter list on a
  // single line); canonicalize their relative order so the printed stream —
  // and the golden tests pinning it — are identical on every compiler.
  StabilizeDiagnosticOrder(result.diagnostics);
  return result;
}

}  // namespace fnproxy::lint
