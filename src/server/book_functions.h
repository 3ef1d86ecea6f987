#ifndef FNPROXY_SERVER_BOOK_FUNCTIONS_H_
#define FNPROXY_SERVER_BOOK_FUNCTIONS_H_

#include <memory>

#include "server/table_function.h"
#include "sql/columnar.h"

namespace fnproxy::server {

/// fGetSimilarBooks(f1, f2, f3, distance): books whose normalized feature
/// vector lies within Euclidean `distance` of (f1, f2, f3) — the paper's
/// "books similar to a given book" hypersphere example (§3.1, property 2).
/// Returns (bookID INT, distance DOUBLE). The referenced Books table must
/// outlive the function and not change; its bookID column must be INT and
/// its f1, f2 and f3 columns DOUBLE, without NULLs.
std::unique_ptr<TableValuedFunction> MakeGetSimilarBooks(
    const sql::ColumnarTable* books);

}  // namespace fnproxy::server

#endif  // FNPROXY_SERVER_BOOK_FUNCTIONS_H_
