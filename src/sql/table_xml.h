#ifndef FNPROXY_SQL_TABLE_XML_H_
#define FNPROXY_SQL_TABLE_XML_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "sql/columnar.h"
#include "sql/schema.h"
#include "util/status.h"

namespace fnproxy::sql {

/// Serializes a result table as an XML document — the wire format between
/// the origin web site and the proxy, and the proxy's cached "query result
/// file" format (the paper stores ~300 MB of XML result files):
///
///   <Result rows="2">
///     <Schema>
///       <Column name="objID" type="INT"/>
///       ...
///     </Schema>
///     <Row><V>1000001</V><V>195.2</V>...</Row>
///     <Row>...</Row>
///   </Result>
///
/// NULL values are encoded as <V null="1"/>.
std::string TableToXml(const Table& table);

/// Optional <Result> attributes a degraded proxy stamps on answers it could
/// only assemble partially from its cache while the origin was unreachable:
///   <Result rows="N" partial="true" coverage="0.4231" degraded="outage">
/// `coverage` is the fraction of the query's region volume the served
/// tuples cover (see geometry::EstimateCoverageFraction). Parsers that do
/// not understand the attributes ignore them.
struct ResultXmlAttrs {
  bool partial = false;
  double coverage = 1.0;
  /// Short machine-readable reason (e.g. "origin-unreachable"); empty =
  /// attribute omitted.
  std::string degraded_reason;
};

/// TableToXml with failure-semantics attributes on the root element.
std::string TableToXml(const Table& table, const ResultXmlAttrs& attrs);

/// Columnar serialization; byte-identical output to the row-wise overloads
/// on the equivalent table, without materializing row objects.
std::string TableToXml(const ColumnarTable& table);
std::string TableToXml(const ColumnarTable& table, const ResultXmlAttrs& attrs);

/// Serializes only the rows listed in `selection` (row indices into
/// `table`), in selection order; rows="selection_size". Passing
/// selection == nullptr serializes the whole table. This is the zero-copy
/// tail of the subsumed-query path: region scan -> selection vector -> XML.
std::string TableToXml(const ColumnarTable& table, const ResultXmlAttrs& attrs,
                       const uint32_t* selection, size_t selection_size);

/// Reads the failure-semantics attributes back off a result document's root
/// element (defaults when absent). Error if the document is not a <Result>.
util::StatusOr<ResultXmlAttrs> ResultAttrsFromXml(std::string_view xml_text);

/// Parses a document produced by TableToXml. A non-null `attrs` also
/// receives the root's failure-semantics attributes, from the same parse.
util::StatusOr<Table> TableFromXml(std::string_view xml_text,
                                   ResultXmlAttrs* attrs = nullptr);

}  // namespace fnproxy::sql

#endif  // FNPROXY_SQL_TABLE_XML_H_
