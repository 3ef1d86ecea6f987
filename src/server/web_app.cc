#include "server/web_app.h"

#include "sql/eval.h"
#include "sql/parser.h"
#include "sql/table_xml.h"
#include "util/string_util.h"

namespace fnproxy::server {

using net::HttpRequest;
using net::HttpResponse;
using sql::SelectStatement;
using sql::Value;
using util::Status;

sql::Value ParseParamValue(const std::string& text) {
  return sql::ParseValueFromText(text);
}

OriginWebApp::OriginWebApp(Database* db, util::SimulatedClock* clock,
                           ServerCostModel cost)
    : db_(db), clock_(clock), cost_(cost) {}

Status OriginWebApp::RegisterForm(std::string path, std::string template_sql) {
  FNPROXY_ASSIGN_OR_RETURN(SelectStatement stmt,
                           sql::ParseSelect(template_sql));
  forms_[std::move(path)] = std::move(stmt);
  return Status::Ok();
}

HttpResponse OriginWebApp::ExecuteAndRespond(const SelectStatement& stmt,
                                             bool is_remainder) {
  auto exec = db_->ExecuteSelect(stmt);
  if (!exec.ok()) {
    return HttpResponse::MakeError(400, exec.status().ToString());
  }
  int64_t processing = cost_.ProcessingMicros(
      exec->tuples_examined, exec->table.num_rows(), is_remainder);
  total_processing_micros_.fetch_add(processing, std::memory_order_relaxed);
  clock_->Advance(processing);
  HttpResponse response;
  response.body = sql::TableToXml(exec->table);
  return response;
}

HttpResponse OriginWebApp::Handle(const HttpRequest& request) {
  if (request.path == "/sql") {
    if (!sql_enabled_.load(std::memory_order_relaxed)) {
      return HttpResponse::MakeError(403, "SQL facility disabled");
    }
    auto it = request.query_params.find("q");
    if (it == request.query_params.end()) {
      return HttpResponse::MakeError(400, "missing 'q' parameter");
    }
    auto stmt = sql::ParseSelect(it->second);
    if (!stmt.ok()) {
      return HttpResponse::MakeError(400, stmt.status().ToString());
    }
    sql_queries_served_.fetch_add(1, std::memory_order_relaxed);
    return ExecuteAndRespond(*stmt, /*is_remainder=*/true);
  }

  auto form = forms_.find(request.path);
  if (form == forms_.end()) {
    return HttpResponse::MakeError(404, "no such endpoint: " + request.path);
  }
  std::map<std::string, Value> params;
  for (const auto& [key, text] : request.query_params) {
    params[key] = ParseParamValue(text);
  }
  auto stmt = sql::SubstituteParameters(form->second, params);
  if (!stmt.ok()) {
    return HttpResponse::MakeError(400, stmt.status().ToString());
  }
  form_queries_served_.fetch_add(1, std::memory_order_relaxed);
  return ExecuteAndRespond(*stmt, /*is_remainder=*/false);
}

}  // namespace fnproxy::server
