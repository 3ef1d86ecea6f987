#include "sql/table_xml.h"

#include <cstdio>
#include <memory>

#include "util/string_util.h"
#include "xml/xml.h"

namespace fnproxy::sql {

using util::Status;
using util::StatusOr;

namespace {

// Serialization is append-only into one pre-reserved string: a cheap
// size-estimating pass first, then no intermediate strings or stringstreams
// on the per-cell path (the formatter writes digits straight into `out`).

void AppendResultOpen(std::string& out, size_t rows,
                      const ResultXmlAttrs& attrs) {
  out += "<Result rows=\"";
  util::AppendInt64(out, static_cast<int64_t>(rows));
  out += "\"";
  if (attrs.partial) {
    char coverage[32];
    std::snprintf(coverage, sizeof(coverage), "%.4f", attrs.coverage);
    out += " partial=\"true\" coverage=\"";
    out += coverage;
    out += "\"";
  }
  if (!attrs.degraded_reason.empty()) {
    out += " degraded=\"" + xml::EscapeXml(attrs.degraded_reason) + "\"";
  }
  out += ">\n  <Schema>\n";
  // Schema block (small; plain concatenation is fine here).
}

void AppendSchema(std::string& out, const Schema& schema) {
  for (const Column& column : schema.columns()) {
    out += "    <Column name=\"";
    xml::AppendEscapedXml(out, column.name);
    out += "\" type=\"";
    out += ValueTypeName(column.type);
    out += "\"/>\n";
  }
  out += "  </Schema>\n";
}

void AppendCell(std::string& out, const Value& value) {
  if (value.is_null()) {
    out += "<V null=\"1\"/>";
    return;
  }
  out += "<V>";
  switch (value.type()) {
    case ValueType::kInt:
      util::AppendInt64(out, value.AsInt());
      break;
    case ValueType::kDouble:
      util::AppendDouble(out, value.AsDouble());
      break;
    case ValueType::kBool:
      out += value.AsBool() ? "true" : "false";
      break;
    case ValueType::kString:
      xml::AppendEscapedXml(out, value.AsString());
      break;
    case ValueType::kNull:
      break;  // Unreachable: handled above.
  }
  out += "</V>";
}

constexpr size_t kRowOverheadBytes = 14;  // "  <Row>" + "</Row>\n".

size_t EstimateCellBytes(const Value& value) {
  switch (value.type()) {
    case ValueType::kNull:
      return 12;  // <V null="1"/>
    case ValueType::kInt:
      return 7 + 20;
    case ValueType::kDouble:
      return 7 + 24;
    case ValueType::kBool:
      return 7 + 5;
    case ValueType::kString:
      // Escape expansion slack: worst case is 6x, typical text has few
      // escapable bytes, so budget size + size/8.
      return 7 + value.AsString().size() + value.AsString().size() / 8;
  }
  return 12;
}

size_t EstimateHeaderBytes(const Schema& schema,
                           const ResultXmlAttrs& attrs) {
  size_t bytes = 96 + attrs.degraded_reason.size();
  for (const Column& column : schema.columns()) {
    bytes += 40 + column.name.size();
  }
  return bytes;
}

}  // namespace

std::string TableToXml(const Table& table) {
  return TableToXml(table, ResultXmlAttrs{});
}

std::string TableToXml(const Table& table, const ResultXmlAttrs& attrs) {
  size_t estimate = EstimateHeaderBytes(table.schema(), attrs);
  for (const Row& row : table.rows()) {
    estimate += kRowOverheadBytes;
    for (const Value& value : row) estimate += EstimateCellBytes(value);
  }
  std::string out;
  out.reserve(estimate);
  AppendResultOpen(out, table.num_rows(), attrs);
  AppendSchema(out, table.schema());
  for (const Row& row : table.rows()) {
    out += "  <Row>";
    for (const Value& value : row) AppendCell(out, value);
    out += "</Row>\n";
  }
  out += "</Result>\n";
  return out;
}

namespace {

/// Per-column serialization plan: raw storage pointers resolved once, so the
/// per-cell loop below runs without function calls. String columns carry
/// their dictionary pre-rendered as complete "<V>escaped</V>" fragments —
/// each distinct string is escaped once, not once per referencing cell.
struct ColumnDesc {
  ColumnarTable::StorageKind kind = ColumnarTable::StorageKind::kAllNull;
  const int64_t* ints = nullptr;
  const double* doubles = nullptr;
  const uint8_t* bools = nullptr;
  const uint32_t* codes = nullptr;
  std::vector<std::string> rendered_dict;
  const uint64_t* nulls = nullptr;
  size_t null_words = 0;
};

bool DescCellIsNull(const ColumnDesc& desc, size_t row) {
  if (desc.kind == ColumnarTable::StorageKind::kAllNull) return true;
  size_t word = row >> 6;
  return desc.nulls != nullptr && word < desc.null_words &&
         ((desc.nulls[word] >> (row & 63)) & 1) != 0;
}

std::vector<ColumnDesc> BuildColumnDescs(const ColumnarTable& table) {
  std::vector<ColumnDesc> descs(table.num_columns());
  for (size_t col = 0; col < table.num_columns(); ++col) {
    ColumnDesc& desc = descs[col];
    desc.kind = table.storage_kind(col);
    desc.nulls = table.RawNullBits(col, &desc.null_words);
    switch (desc.kind) {
      case ColumnarTable::StorageKind::kInt:
        desc.ints = table.RawInts(col);
        break;
      case ColumnarTable::StorageKind::kDouble:
        desc.doubles = table.RawDoubles(col);
        break;
      case ColumnarTable::StorageKind::kBool:
        desc.bools = table.RawBools(col);
        break;
      case ColumnarTable::StorageKind::kString: {
        desc.codes = table.RawStringCodes(col);
        const std::vector<std::string>& dict = table.RawDict(col);
        desc.rendered_dict.reserve(dict.size());
        for (const std::string& text : dict) {
          std::string fragment = "<V>";
          xml::AppendEscapedXml(fragment, text);
          fragment += "</V>";
          desc.rendered_dict.push_back(std::move(fragment));
        }
        break;
      }
      case ColumnarTable::StorageKind::kAllNull:
        break;
    }
  }
  return descs;
}

size_t EstimateColumnarBytes(const ColumnarTable& table,
                             const uint32_t* selection, size_t rows) {
  size_t estimate = rows * kRowOverheadBytes;
  for (size_t col = 0; col < table.num_columns(); ++col) {
    switch (table.storage_kind(col)) {
      case ColumnarTable::StorageKind::kInt:
        estimate += rows * 27;
        break;
      case ColumnarTable::StorageKind::kDouble:
        estimate += rows * 31;
        break;
      case ColumnarTable::StorageKind::kBool:
        estimate += rows * 12;
        break;
      case ColumnarTable::StorageKind::kString: {
        for (size_t i = 0; i < rows; ++i) {
          size_t r = selection ? selection[i] : i;
          if (table.CellIsNull(r, col)) {
            estimate += 12;
          } else {
            size_t len = table.CellString(r, col).size();
            estimate += 7 + len + len / 8;
          }
        }
        break;
      }
      case ColumnarTable::StorageKind::kAllNull:
        estimate += rows * 12;
        break;
    }
  }
  return estimate;
}

}  // namespace

std::string TableToXml(const ColumnarTable& table) {
  return TableToXml(table, ResultXmlAttrs{}, nullptr, table.num_rows());
}

std::string TableToXml(const ColumnarTable& table,
                       const ResultXmlAttrs& attrs) {
  return TableToXml(table, attrs, nullptr, table.num_rows());
}

std::string TableToXml(const ColumnarTable& table, const ResultXmlAttrs& attrs,
                       const uint32_t* selection, size_t selection_size) {
  std::string out;
  out.reserve(EstimateHeaderBytes(table.schema(), attrs) +
              EstimateColumnarBytes(table, selection, selection_size));
  AppendResultOpen(out, selection_size, attrs);
  AppendSchema(out, table.schema());
  std::vector<ColumnDesc> descs = BuildColumnDescs(table);
  for (size_t i = 0; i < selection_size; ++i) {
    size_t row = selection ? selection[i] : i;
    out.append("  <Row>", 7);
    for (const ColumnDesc& desc : descs) {
      if (DescCellIsNull(desc, row)) {
        out.append("<V null=\"1\"/>", 13);
        continue;
      }
      switch (desc.kind) {
        case ColumnarTable::StorageKind::kInt:
          out.append("<V>", 3);
          util::AppendInt64(out, desc.ints[row]);
          out.append("</V>", 4);
          break;
        case ColumnarTable::StorageKind::kDouble:
          out.append("<V>", 3);
          util::AppendDouble(out, desc.doubles[row]);
          out.append("</V>", 4);
          break;
        case ColumnarTable::StorageKind::kBool:
          if (desc.bools[row] != 0) {
            out.append("<V>true</V>", 11);
          } else {
            out.append("<V>false</V>", 12);
          }
          break;
        case ColumnarTable::StorageKind::kString:
          out += desc.rendered_dict[desc.codes[row]];
          break;
        case ColumnarTable::StorageKind::kAllNull:
          break;  // Unreachable: DescCellIsNull is always true.
      }
    }
    out.append("</Row>\n", 7);
  }
  out += "</Result>\n";
  return out;
}

namespace {

StatusOr<ValueType> ParseValueType(std::string_view name) {
  if (name == "NULL") return ValueType::kNull;
  if (name == "INT") return ValueType::kInt;
  if (name == "DOUBLE") return ValueType::kDouble;
  if (name == "STRING") return ValueType::kString;
  if (name == "BOOL") return ValueType::kBool;
  return Status::ParseError("unknown value type '" + std::string(name) + "'");
}

StatusOr<Value> ParseTypedValue(ValueType type, const std::string& text) {
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt: {
      FNPROXY_ASSIGN_OR_RETURN(int64_t v, util::ParseInt64(text));
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      FNPROXY_ASSIGN_OR_RETURN(double v, util::ParseDouble(text));
      return Value::Double(v);
    }
    case ValueType::kBool:
      if (util::EqualsIgnoreCase(text, "true")) return Value::Bool(true);
      if (util::EqualsIgnoreCase(text, "false")) return Value::Bool(false);
      return Status::ParseError("invalid bool '" + text + "'");
    case ValueType::kString:
      return Value::String(text);
  }
  return Status::ParseError("bad value type");
}

StatusOr<std::unique_ptr<xml::XmlElement>> ParseResultRoot(
    std::string_view xml_text) {
  FNPROXY_ASSIGN_OR_RETURN(auto root, xml::ParseXml(xml_text));
  if (root->name() != "Result") {
    return Status::ParseError("expected <Result> root element");
  }
  return root;
}

StatusOr<ResultXmlAttrs> AttrsOf(const xml::XmlElement& root) {
  ResultXmlAttrs attrs;
  if (const std::string* partial = root.FindAttribute("partial")) {
    attrs.partial = *partial == "true" || *partial == "1";
  }
  if (const std::string* coverage = root.FindAttribute("coverage")) {
    FNPROXY_ASSIGN_OR_RETURN(attrs.coverage, util::ParseDouble(*coverage));
  }
  if (const std::string* reason = root.FindAttribute("degraded")) {
    attrs.degraded_reason = *reason;
  }
  return attrs;
}

StatusOr<Table> TableOf(const xml::XmlElement& root) {
  const xml::XmlElement* schema_element = root.FindChild("Schema");
  if (schema_element == nullptr) {
    return Status::ParseError("missing <Schema> element");
  }
  Schema schema;
  for (const xml::XmlElement* column : schema_element->FindChildren("Column")) {
    const std::string* name = column->FindAttribute("name");
    const std::string* type = column->FindAttribute("type");
    if (name == nullptr || type == nullptr) {
      return Status::ParseError("<Column> needs name and type attributes");
    }
    FNPROXY_ASSIGN_OR_RETURN(ValueType value_type, ParseValueType(*type));
    schema.AddColumn({*name, value_type});
  }
  Table table(schema);
  for (const xml::XmlElement* row_element : root.FindChildren("Row")) {
    const auto& cells = row_element->children();
    if (cells.size() != schema.num_columns()) {
      return Status::ParseError("row width does not match schema");
    }
    Row row;
    row.reserve(cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i]->name() != "V") {
        return Status::ParseError("expected <V> cells in <Row>");
      }
      if (cells[i]->FindAttribute("null") != nullptr) {
        row.push_back(Value::Null());
        continue;
      }
      FNPROXY_ASSIGN_OR_RETURN(
          Value value, ParseTypedValue(schema.column(i).type, cells[i]->text()));
      row.push_back(std::move(value));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

}  // namespace

StatusOr<ResultXmlAttrs> ResultAttrsFromXml(std::string_view xml_text) {
  FNPROXY_ASSIGN_OR_RETURN(auto root, ParseResultRoot(xml_text));
  return AttrsOf(*root);
}

StatusOr<Table> TableFromXml(std::string_view xml_text,
                             ResultXmlAttrs* attrs) {
  FNPROXY_ASSIGN_OR_RETURN(auto root, ParseResultRoot(xml_text));
  if (attrs != nullptr) {
    FNPROXY_ASSIGN_OR_RETURN(*attrs, AttrsOf(*root));
  }
  return TableOf(*root);
}

}  // namespace fnproxy::sql
