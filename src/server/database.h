#ifndef FNPROXY_SERVER_DATABASE_H_
#define FNPROXY_SERVER_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "server/table_function.h"
#include "sql/ast.h"
#include "sql/columnar.h"
#include "sql/eval.h"
#include "sql/schema.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace fnproxy::server {

/// The origin site's database engine: named base tables, registered
/// table-valued functions, scalar functions, and an executor for the SELECT
/// subset the web application and the remainder-query facility accept.
/// Base tables are stored as typed columns; the executor materializes a
/// base-table row only when a scan or a join reaches it.
///
/// ExecuteSelect is const and thread-safe (the lazily built join hash
/// indexes are mutex-guarded); configuration (AddTable,
/// RegisterTableFunction) must finish before concurrent execution starts.
///
/// Supported statements mirror the paper's function-embedded query template
/// (Fig. 2): a FROM source that is a base table or TVF call with constant
/// arguments, any number of INNER JOINs onto base tables, a WHERE clause,
/// ORDER BY, and TOP. Equality joins onto a base-table integer column use a
/// lazily built hash index; other join conditions fall back to nested loops.
class Database {
 public:
  Database();

  /// Registers a base table; replaces any table of the same name. A
  /// row-wise sql::Table converts on the way in.
  void AddTable(std::string name, sql::ColumnarTable table);
  /// Returns nullptr when unknown. Lookup is case-insensitive and ignores a
  /// leading "dbo." qualifier, as SkyServer queries write both forms.
  const sql::ColumnarTable* FindTable(std::string_view name) const;

  /// Registers a table-valued function (keyed by its name()).
  void RegisterTableFunction(std::unique_ptr<TableValuedFunction> fn);
  const TableValuedFunction* FindTableFunction(std::string_view name) const;

  /// Scalar functions usable in expressions (prepopulated with math
  /// builtins; the SkyServer app adds fPhotoFlags).
  sql::ScalarFunctionRegistry* scalar_functions() { return &scalars_; }
  const sql::ScalarFunctionRegistry* scalar_functions() const {
    return &scalars_;
  }

  struct ExecResult {
    sql::Table table;
    /// Candidate tuples examined while producing the result (drives the
    /// server cost model).
    size_t tuples_examined = 0;
  };

  /// Executes a fully instantiated statement (no $parameters).
  util::StatusOr<ExecResult> ExecuteSelect(const sql::SelectStatement& stmt) const;

 private:
  struct HashIndexKey {
    std::string table;
    std::string column;
    bool operator<(const HashIndexKey& other) const {
      return std::tie(table, column) < std::tie(other.table, other.column);
    }
  };
  using HashIndex = std::unordered_multimap<int64_t, size_t>;

  /// Lazily builds/fetches a hash index over an INT column of a base table.
  const HashIndex* GetHashIndex(const std::string& table_name,
                                const sql::ColumnarTable& table,
                                size_t column) const
      EXCLUDES(hash_index_mu_);

  static std::string NormalizeName(std::string_view name);

  std::map<std::string, sql::ColumnarTable> tables_;  // Keys normalized.
  std::map<std::string, std::unique_ptr<TableValuedFunction>> functions_;
  sql::ScalarFunctionRegistry scalars_;
  /// Lazily built under hash_index_mu_ so concurrent ExecuteSelect calls
  /// (the origin serves a thread pool) never race the first build. Map
  /// nodes are stable, so returned pointers stay valid after unlock.
  mutable util::Mutex hash_index_mu_;
  mutable std::map<HashIndexKey, HashIndex> hash_indexes_
      GUARDED_BY(hash_index_mu_);
};

}  // namespace fnproxy::server

#endif  // FNPROXY_SERVER_DATABASE_H_
