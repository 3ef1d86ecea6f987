#ifndef FNPROXY_SERVER_WEB_APP_H_
#define FNPROXY_SERVER_WEB_APP_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/http.h"
#include "server/cost_model.h"
#include "server/database.h"
#include "sql/ast.h"
#include "util/clock.h"
#include "util/status.h"

namespace fnproxy::server {

/// The database-backed origin web site. Two kinds of endpoints:
///
/// * Search forms (paper Fig. 1): a registered path such as `/radial` whose
///   parameterized SQL template is instantiated from the request's query
///   parameters — exactly how the SkyServer turns HTML form input into a
///   function-embedded query.
/// * The SQL facility `/sql?q=...`: accepts an arbitrary statement of the
///   supported subset, mirroring SkyServer's free-form SQL search page; the
///   proxy uses it as the remainder-query facility.
///
/// Responses are XML-serialized result tables. Processing time is charged
/// on the shared simulated clock using the ServerCostModel.
///
/// Handle() is thread-safe once configuration (RegisterForm,
/// set_sql_endpoint_enabled) is complete: queries execute concurrently
/// against the shared Database and counters are atomics.
class OriginWebApp final : public net::HttpHandler {
 public:
  /// `db` and `clock` must outlive the app.
  OriginWebApp(Database* db, util::SimulatedClock* clock,
               ServerCostModel cost = ServerCostModel());

  /// Registers a form endpoint: `template_sql` is a SELECT with $name
  /// placeholders; each request must carry all placeholder names as query
  /// parameters. Returns error if the template does not parse.
  util::Status RegisterForm(std::string path, std::string template_sql);

  /// Enables/disables the /sql remainder-query facility (paper §3.2: a site
  /// may or may not support modified queries). Default on. Atomic so the
  /// toggle may race with concurrent Handle() calls (fault-injection tests
  /// flip it while the server is serving).
  void set_sql_endpoint_enabled(bool enabled) {
    sql_enabled_.store(enabled, std::memory_order_relaxed);
  }

  net::HttpResponse Handle(const net::HttpRequest& request) override;

  uint64_t form_queries_served() const {
    return form_queries_served_.load(std::memory_order_relaxed);
  }
  uint64_t sql_queries_served() const {
    return sql_queries_served_.load(std::memory_order_relaxed);
  }
  int64_t total_processing_micros() const {
    return total_processing_micros_.load(std::memory_order_relaxed);
  }

 private:
  net::HttpResponse ExecuteAndRespond(const sql::SelectStatement& stmt,
                                      bool is_remainder);

  Database* db_;
  util::SimulatedClock* clock_;
  ServerCostModel cost_;
  std::atomic<bool> sql_enabled_{true};
  // Read-only after registration; register all forms before serving
  // concurrent traffic.
  std::map<std::string, sql::SelectStatement> forms_;  // path -> template.
  std::atomic<uint64_t> form_queries_served_{0};
  std::atomic<uint64_t> sql_queries_served_{0};
  std::atomic<int64_t> total_processing_micros_{0};
};

/// Parses a form parameter string into a typed SQL value: INT if it parses
/// as an integer, DOUBLE if as a number, STRING otherwise.
sql::Value ParseParamValue(const std::string& text);

}  // namespace fnproxy::server

#endif  // FNPROXY_SERVER_WEB_APP_H_
