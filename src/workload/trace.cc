#include "workload/trace.h"

#include "net/http.h"
#include "util/string_util.h"

namespace fnproxy::workload {

using geometry::RegionRelation;
using util::Status;
using util::StatusOr;

double Trace::IntendedFraction(RegionRelation relation) const {
  if (queries.empty()) return 0.0;
  size_t count = 0;
  for (const TraceQuery& q : queries) {
    if (q.intended == relation) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(queries.size());
}

namespace {

const char* RelationCode(RegionRelation relation) {
  switch (relation) {
    case RegionRelation::kEqual:
      return "E";
    case RegionRelation::kContainedBy:
      return "C";
    case RegionRelation::kContains:
      return "R";
    case RegionRelation::kOverlap:
      return "O";
    case RegionRelation::kDisjoint:
      return "D";
  }
  return "?";
}

StatusOr<RegionRelation> ParseRelationCode(std::string_view code) {
  if (code == "E") return RegionRelation::kEqual;
  if (code == "C") return RegionRelation::kContainedBy;
  if (code == "R") return RegionRelation::kContains;
  if (code == "O") return RegionRelation::kOverlap;
  if (code == "D") return RegionRelation::kDisjoint;
  return Status::ParseError("bad relation code '" + std::string(code) + "'");
}

}  // namespace

std::string Trace::Serialize() const {
  std::string out = form_path + "\n";
  for (const TraceQuery& q : queries) {
    out += RelationCode(q.intended);
    out += '\t';
    out += net::BuildQueryString(q.params);
    out += '\n';
  }
  return out;
}

StatusOr<Trace> Trace::Deserialize(std::string_view text) {
  std::vector<std::string> lines = util::Split(text, '\n');
  if (lines.empty() || util::Trim(lines[0]).empty()) {
    return Status::ParseError("trace is missing the form-path header");
  }
  Trace trace;
  trace.form_path = std::string(util::Trim(lines[0]));
  for (size_t i = 1; i < lines.size(); ++i) {
    std::string_view line = util::Trim(lines[i]);
    if (line.empty()) continue;
    size_t tab = line.find('\t');
    if (tab == std::string_view::npos) {
      return Status::ParseError(std::string("trace line ") + std::to_string(i) +
                                " lacks a tab separator");
    }
    TraceQuery query;
    FNPROXY_ASSIGN_OR_RETURN(query.intended,
                             ParseRelationCode(line.substr(0, tab)));
    FNPROXY_ASSIGN_OR_RETURN(query.params,
                             net::ParseQueryString(line.substr(tab + 1)));
    trace.queries.push_back(std::move(query));
  }
  return trace;
}

}  // namespace fnproxy::workload
