#include "server/book_functions.h"

#include <cassert>
#include <cmath>

namespace fnproxy::server {

using sql::Schema;
using sql::Table;
using sql::Value;
using sql::ValueType;
using util::Status;
using util::StatusOr;

namespace {

class GetSimilarBooks final : public TableValuedFunction {
 public:
  explicit GetSimilarBooks(const sql::ColumnarTable* books)
      : books_(books),
        schema_(Schema({{"bookID", ValueType::kInt},
                        {"distance", ValueType::kDouble}})) {
    const Schema& cat = books_->schema();
    col_id_ = *cat.FindColumn("bookID");
    col_f1_ = *cat.FindColumn("f1");
    col_f2_ = *cat.FindColumn("f2");
    col_f3_ = *cat.FindColumn("f3");
  }

  const std::string& name() const override { return name_; }
  size_t num_params() const override { return 4; }
  const sql::Schema& schema() const override { return schema_; }

  StatusOr<TvfResult> Execute(const std::vector<Value>& args) const override {
    if (args.size() != 4) {
      return Status::InvalidArgument("fGetSimilarBooks expects 4 arguments");
    }
    double f[3];
    for (int i = 0; i < 3; ++i) {
      FNPROXY_ASSIGN_OR_RETURN(f[i], args[static_cast<size_t>(i)].ToNumeric());
    }
    FNPROXY_ASSIGN_OR_RETURN(double max_dist, args[3].ToNumeric());
    if (max_dist < 0) {
      return Status::InvalidArgument("fGetSimilarBooks: negative distance");
    }

    TvfResult result;
    result.table = Table(schema_);
    result.tuples_examined = books_->num_rows();
    double max_sq = max_dist * max_dist;
    const int64_t* ids = books_->RawInts(col_id_);
    const double* f1 = books_->RawDoubles(col_f1_);
    const double* f2 = books_->RawDoubles(col_f2_);
    const double* f3 = books_->RawDoubles(col_f3_);
    for (size_t i = 0; i < books_->num_rows(); ++i) {
      double d1 = f1[i] - f[0];
      double d2 = f2[i] - f[1];
      double d3 = f3[i] - f[2];
      double d_sq = d1 * d1 + d2 * d2 + d3 * d3;
      if (d_sq <= max_sq) {
        result.table.AddRow(
            {Value::Int(ids[i]), Value::Double(std::sqrt(d_sq))});
      }
    }
    return result;
  }

 private:
  const sql::ColumnarTable* books_;
  std::string name_ = "fGetSimilarBooks";
  Schema schema_;
  size_t col_id_, col_f1_, col_f2_, col_f3_;
};

}  // namespace

std::unique_ptr<TableValuedFunction> MakeGetSimilarBooks(
    const sql::ColumnarTable* books) {
  return std::make_unique<GetSimilarBooks>(books);
}

}  // namespace fnproxy::server
