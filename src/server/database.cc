#include "server/database.h"

#include <algorithm>
#include <cassert>

#include "util/string_util.h"

namespace fnproxy::server {

using sql::Column;
using sql::Expr;
using sql::ExprEvaluator;
using sql::Row;
using sql::RowBinding;
using sql::Schema;
using sql::SelectStatement;
using sql::Table;
using sql::TableRef;
using sql::Value;
using sql::ValueType;
using util::Status;
using util::StatusOr;

Database::Database() : scalars_(sql::ScalarFunctionRegistry::WithBuiltins()) {}

std::string Database::NormalizeName(std::string_view name) {
  std::string lower = util::ToLower(name);
  if (util::StartsWith(lower, "dbo.")) lower = lower.substr(4);
  return lower;
}

void Database::AddTable(std::string name, sql::ColumnarTable table) {
  tables_[NormalizeName(name)] = std::move(table);
}

const sql::ColumnarTable* Database::FindTable(std::string_view name) const {
  auto it = tables_.find(NormalizeName(name));
  return it == tables_.end() ? nullptr : &it->second;
}

void Database::RegisterTableFunction(std::unique_ptr<TableValuedFunction> fn) {
  std::string key = NormalizeName(fn->name());
  functions_[std::move(key)] = std::move(fn);
}

const TableValuedFunction* Database::FindTableFunction(
    std::string_view name) const {
  auto it = functions_.find(NormalizeName(name));
  return it == functions_.end() ? nullptr : it->second.get();
}

const Database::HashIndex* Database::GetHashIndex(
    const std::string& table_name, const sql::ColumnarTable& table,
    size_t column) const {
  HashIndexKey key{NormalizeName(table_name), table.schema().column(column).name};
  util::MutexLock lock(hash_index_mu_);
  auto it = hash_indexes_.find(key);
  if (it != hash_indexes_.end()) return &it->second;
  if (table.storage_kind(column) != sql::ColumnarTable::StorageKind::kInt) {
    return nullptr;
  }
  HashIndex index;
  index.reserve(table.num_rows());
  const int64_t* keys = table.RawInts(column);
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (!table.CellIsNull(i, column)) index.emplace(keys[i], i);
  }
  auto [inserted, unused] = hash_indexes_.emplace(key, std::move(index));
  (void)unused;
  return &inserted->second;
}

namespace {

/// One FROM/JOIN source during execution.
struct Source {
  std::string qualifier;
  const Schema* schema;
};

/// A joined tuple: one row per source, positionally aligned with `sources`.
using JoinedRow = std::vector<Row>;

RowBinding BindTuple(const std::vector<Source>& sources, const JoinedRow& tuple) {
  RowBinding binding;
  for (size_t i = 0; i < sources.size(); ++i) {
    binding.AddSource(sources[i].qualifier, sources[i].schema, &tuple[i]);
  }
  return binding;
}

/// Infers the output column type of a projected expression. Column refs take
/// their source type; literals their own; arithmetic defaults to DOUBLE.
ValueType InferType(const Expr& expr, const std::vector<Source>& sources) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal.type() == ValueType::kNull ? ValueType::kDouble
                                                     : expr.literal.type();
    case Expr::Kind::kColumnRef:
      for (const Source& source : sources) {
        if (!expr.qualifier.empty() &&
            !util::EqualsIgnoreCase(source.qualifier, expr.qualifier)) {
          continue;
        }
        auto idx = source.schema->FindColumn(expr.name);
        if (idx.has_value()) return source.schema->column(*idx).type;
      }
      return ValueType::kDouble;
    case Expr::Kind::kBinary:
      if (expr.op == sql::BinaryOp::kAnd || expr.op == sql::BinaryOp::kOr)
        return ValueType::kBool;
      if (expr.op == sql::BinaryOp::kBitAnd || expr.op == sql::BinaryOp::kBitOr)
        return ValueType::kInt;
      switch (expr.op) {
        case sql::BinaryOp::kEq:
        case sql::BinaryOp::kNe:
        case sql::BinaryOp::kLt:
        case sql::BinaryOp::kLe:
        case sql::BinaryOp::kGt:
        case sql::BinaryOp::kGe:
          return ValueType::kBool;
        default:
          return ValueType::kDouble;
      }
    case Expr::Kind::kBetween:
    case Expr::Kind::kInList:
    case Expr::Kind::kIsNull:
      return ValueType::kBool;
    default:
      return ValueType::kDouble;
  }
}

/// Derives a column name for an unaliased projection.
std::string DeriveName(const Expr& expr, size_t index) {
  if (expr.kind == Expr::Kind::kColumnRef) return expr.name;
  if (expr.kind == Expr::Kind::kFunctionCall) return expr.name;
  return std::string("col") + std::to_string(index + 1);
}

/// If `condition` is `a.x = b.y` with exactly one side resolving to the new
/// source and the other to an existing source, reports the two column refs.
struct EquiJoin {
  const Expr* left_ref;   // Resolves against the existing sources.
  const Expr* right_ref;  // Resolves against the new source.
};

bool ColumnResolvesTo(const Expr& ref, const Source& source) {
  if (!ref.qualifier.empty() &&
      !util::EqualsIgnoreCase(ref.qualifier, source.qualifier)) {
    return false;
  }
  return source.schema->FindColumn(ref.name).has_value();
}

/// Bind-time validation: every column reference in `expr` must resolve to
/// one of `sources` (so queries with typos fail even on empty inputs).
Status ValidateColumnRefs(const Expr& expr, const std::vector<Source>& sources) {
  if (expr.kind == Expr::Kind::kColumnRef) {
    for (const Source& source : sources) {
      if (ColumnResolvesTo(expr, source)) return Status::Ok();
    }
    std::string full =
        expr.qualifier.empty() ? expr.name : expr.qualifier + "." + expr.name;
    return Status::NotFound("unknown column " + full);
  }
  for (const auto& child : expr.children) {
    FNPROXY_RETURN_NOT_OK(ValidateColumnRefs(*child, sources));
  }
  return Status::Ok();
}

std::optional<EquiJoin> DetectEquiJoin(const Expr& condition,
                                       const std::vector<Source>& existing,
                                       const Source& added) {
  if (condition.kind != Expr::Kind::kBinary ||
      condition.op != sql::BinaryOp::kEq) {
    return std::nullopt;
  }
  const Expr* lhs = condition.children[0].get();
  const Expr* rhs = condition.children[1].get();
  if (lhs->kind != Expr::Kind::kColumnRef || rhs->kind != Expr::Kind::kColumnRef) {
    return std::nullopt;
  }
  auto resolves_existing = [&existing](const Expr& ref) {
    for (const Source& source : existing) {
      if (ColumnResolvesTo(ref, source)) return true;
    }
    return false;
  };
  if (resolves_existing(*lhs) && ColumnResolvesTo(*rhs, added)) {
    return EquiJoin{lhs, rhs};
  }
  if (resolves_existing(*rhs) && ColumnResolvesTo(*lhs, added)) {
    return EquiJoin{rhs, lhs};
  }
  return std::nullopt;
}

}  // namespace

StatusOr<Database::ExecResult> Database::ExecuteSelect(
    const SelectStatement& stmt) const {
  if (stmt.HasParameters()) {
    return Status::InvalidArgument(
        "statement still contains unbound $parameters");
  }
  ExprEvaluator evaluator(&scalars_);
  size_t tuples_examined = 0;

  std::vector<Source> sources;
  std::vector<JoinedRow> tuples;
  // Owned storage for TVF results (their schemas must stay alive).
  std::vector<std::unique_ptr<Table>> owned_tables;

  // --- FROM source ---
  const TableRef& from = stmt.from;
  if (from.kind == TableRef::Kind::kFunctionCall) {
    const TableValuedFunction* fn = FindTableFunction(from.name);
    if (fn == nullptr) {
      return Status::NotFound("unknown table-valued function " + from.name);
    }
    std::vector<Value> args;
    args.reserve(from.args.size());
    RowBinding empty_binding;
    for (const auto& arg : from.args) {
      FNPROXY_ASSIGN_OR_RETURN(Value v, evaluator.Eval(*arg, empty_binding));
      args.push_back(std::move(v));
    }
    FNPROXY_ASSIGN_OR_RETURN(TvfResult tvf, fn->Execute(args));
    tuples_examined += tvf.tuples_examined;
    owned_tables.push_back(std::make_unique<Table>(std::move(tvf.table)));
    const Table* result = owned_tables.back().get();
    sources.push_back({from.EffectiveName(), &result->schema()});
    tuples.reserve(result->num_rows());
    for (const Row& row : result->rows()) {
      tuples.push_back(JoinedRow{row});
    }
  } else {
    const sql::ColumnarTable* table = FindTable(from.name);
    if (table == nullptr) {
      return Status::NotFound("unknown table " + from.name);
    }
    sources.push_back({from.EffectiveName(), &table->schema()});
    tuples_examined += table->num_rows();
    tuples.resize(table->num_rows());
    for (size_t r = 0; r < table->num_rows(); ++r) {
      tuples[r].push_back(table->RowAt(r));
    }
  }

  // --- JOINs ---
  for (const sql::JoinClause& join : stmt.joins) {
    if (join.table.kind == TableRef::Kind::kFunctionCall) {
      return Status::Unsupported(
          "table-valued functions are only supported in the FROM clause");
    }
    const sql::ColumnarTable* right = FindTable(join.table.name);
    if (right == nullptr) {
      return Status::NotFound("unknown table " + join.table.name);
    }
    Source added{join.table.EffectiveName(), &right->schema()};

    std::vector<JoinedRow> joined;
    std::optional<EquiJoin> equi =
        DetectEquiJoin(*join.condition, sources, added);
    const HashIndex* index = nullptr;
    size_t right_key_col = 0;
    if (equi.has_value()) {
      auto idx = right->schema().FindColumn(equi->right_ref->name);
      right_key_col = *idx;
      index = GetHashIndex(join.table.name, *right, right_key_col);
    }

    if (index != nullptr) {
      // Hash probe per accumulated tuple.
      for (JoinedRow& tuple : tuples) {
        RowBinding binding = BindTuple(sources, tuple);
        FNPROXY_ASSIGN_OR_RETURN(
            Value key, evaluator.Eval(*equi->left_ref, binding));
        ++tuples_examined;
        if (key.is_null() || key.type() != ValueType::kInt) continue;
        auto [begin, end] = index->equal_range(key.AsInt());
        for (auto it = begin; it != end; ++it) {
          JoinedRow combined = tuple;
          combined.push_back(right->RowAt(it->second));
          joined.push_back(std::move(combined));
        }
      }
    } else {
      // Nested-loop join.
      for (JoinedRow& tuple : tuples) {
        for (size_t r = 0; r < right->num_rows(); ++r) {
          ++tuples_examined;
          JoinedRow combined = tuple;
          combined.push_back(right->RowAt(r));
          RowBinding binding;
          for (size_t i = 0; i < sources.size(); ++i) {
            binding.AddSource(sources[i].qualifier, sources[i].schema,
                              &combined[i]);
          }
          binding.AddSource(added.qualifier, added.schema, &combined.back());
          FNPROXY_ASSIGN_OR_RETURN(
              bool matches, evaluator.EvalPredicate(*join.condition, binding));
          if (matches) joined.push_back(std::move(combined));
        }
      }
    }
    sources.push_back(added);
    tuples = std::move(joined);
  }

  // --- Bind-time validation of every expression against the final sources.
  if (stmt.where != nullptr) {
    FNPROXY_RETURN_NOT_OK(ValidateColumnRefs(*stmt.where, sources));
  }
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr != nullptr) {
      FNPROXY_RETURN_NOT_OK(ValidateColumnRefs(*item.expr, sources));
    }
  }
  for (const sql::OrderItem& item : stmt.order_by) {
    FNPROXY_RETURN_NOT_OK(ValidateColumnRefs(*item.expr, sources));
  }

  // --- WHERE ---
  if (stmt.where != nullptr) {
    std::vector<JoinedRow> filtered;
    filtered.reserve(tuples.size());
    for (JoinedRow& tuple : tuples) {
      RowBinding binding = BindTuple(sources, tuple);
      FNPROXY_ASSIGN_OR_RETURN(bool keep,
                               evaluator.EvalPredicate(*stmt.where, binding));
      if (keep) filtered.push_back(std::move(tuple));
    }
    tuples = std::move(filtered);
  }

  // --- ORDER BY (applied before projection so keys may use any column) ---
  if (!stmt.order_by.empty()) {
    struct Keyed {
      std::vector<Value> keys;
      JoinedRow* tuple;
    };
    std::vector<Keyed> keyed;
    keyed.reserve(tuples.size());
    for (JoinedRow& tuple : tuples) {
      RowBinding binding = BindTuple(sources, tuple);
      Keyed k;
      k.tuple = &tuple;
      for (const sql::OrderItem& item : stmt.order_by) {
        FNPROXY_ASSIGN_OR_RETURN(Value v, evaluator.Eval(*item.expr, binding));
        k.keys.push_back(std::move(v));
      }
      keyed.push_back(std::move(k));
    }
    std::stable_sort(keyed.begin(), keyed.end(),
                     [&stmt](const Keyed& a, const Keyed& b) {
                       for (size_t i = 0; i < stmt.order_by.size(); ++i) {
                         auto cmp = a.keys[i].Compare(b.keys[i]);
                         int c = cmp.ok() ? *cmp : 0;
                         if (c != 0) {
                           return stmt.order_by[i].descending ? c > 0 : c < 0;
                         }
                       }
                       return false;
                     });
    std::vector<JoinedRow> ordered;
    ordered.reserve(tuples.size());
    for (const Keyed& k : keyed) ordered.push_back(std::move(*k.tuple));
    tuples = std::move(ordered);
  }

  // --- TOP ---
  if (stmt.top_n.has_value() &&
      tuples.size() > static_cast<size_t>(*stmt.top_n)) {
    tuples.resize(static_cast<size_t>(*stmt.top_n));
  }

  // --- Projection ---
  // Expand the select list into (name, type, source-column | expression).
  struct OutputColumn {
    std::string name;
    ValueType type;
    // Either a direct (source, column) pick or an expression to evaluate.
    std::optional<std::pair<size_t, size_t>> direct;
    const Expr* expr = nullptr;
  };
  std::vector<OutputColumn> outputs;
  for (size_t item_index = 0; item_index < stmt.items.size(); ++item_index) {
    const sql::SelectItem& item = stmt.items[item_index];
    if (item.star) {
      for (size_t s = 0; s < sources.size(); ++s) {
        if (!item.star_qualifier.empty() &&
            !util::EqualsIgnoreCase(sources[s].qualifier, item.star_qualifier)) {
          continue;
        }
        for (size_t c = 0; c < sources[s].schema->num_columns(); ++c) {
          OutputColumn out;
          out.name = sources[s].schema->column(c).name;
          out.type = sources[s].schema->column(c).type;
          out.direct = {s, c};
          outputs.push_back(std::move(out));
        }
      }
      continue;
    }
    OutputColumn out;
    out.name = item.alias.empty() ? DeriveName(*item.expr, item_index)
                                  : item.alias;
    out.type = InferType(*item.expr, sources);
    if (item.expr->kind == Expr::Kind::kColumnRef) {
      for (size_t s = 0; s < sources.size(); ++s) {
        if (ColumnResolvesTo(*item.expr, sources[s])) {
          out.direct = {s, *sources[s].schema->FindColumn(item.expr->name)};
          break;
        }
      }
    }
    if (!out.direct.has_value()) out.expr = item.expr.get();
    outputs.push_back(std::move(out));
  }

  Schema out_schema;
  for (const OutputColumn& out : outputs) {
    out_schema.AddColumn({out.name, out.type});
  }
  Table result(out_schema);
  result.Reserve(tuples.size());
  for (const JoinedRow& tuple : tuples) {
    Row out_row;
    out_row.reserve(outputs.size());
    RowBinding binding = BindTuple(sources, tuple);
    for (const OutputColumn& out : outputs) {
      if (out.direct.has_value()) {
        out_row.push_back(tuple[out.direct->first][out.direct->second]);
      } else {
        FNPROXY_ASSIGN_OR_RETURN(Value v, evaluator.Eval(*out.expr, binding));
        out_row.push_back(std::move(v));
      }
    }
    result.AddRow(std::move(out_row));
  }

  return ExecResult{std::move(result), tuples_examined};
}

}  // namespace fnproxy::server
