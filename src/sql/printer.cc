#include "sql/printer.h"

namespace fnproxy::sql {

std::string ExprToSql(const Expr& expr) {
  switch (expr.kind) {
    case Expr::Kind::kLiteral:
      return expr.literal.ToSqlLiteral();
    case Expr::Kind::kParameter:
      return "$" + expr.name;
    case Expr::Kind::kColumnRef:
      return expr.qualifier.empty() ? expr.name
                                    : expr.qualifier + "." + expr.name;
    case Expr::Kind::kUnary:
      if (expr.uop == UnaryOp::kNot) {
        return std::string("(NOT ") + ExprToSql(*expr.children[0]) + ")";
      }
      return std::string(UnaryOpSymbol(expr.uop)) + "(" +
             ExprToSql(*expr.children[0]) + ")";
    case Expr::Kind::kBinary: {
      std::string out = "(";
      out += ExprToSql(*expr.children[0]);
      out += " ";
      out += BinaryOpSymbol(expr.op);
      out += " ";
      out += ExprToSql(*expr.children[1]);
      out += ")";
      return out;
    }
    case Expr::Kind::kFunctionCall: {
      std::string out = expr.name + "(";
      for (size_t i = 0; i < expr.children.size(); ++i) {
        if (i > 0) out += ", ";
        out += ExprToSql(*expr.children[i]);
      }
      out += ")";
      return out;
    }
    case Expr::Kind::kBetween: {
      std::string out = "(";
      out += ExprToSql(*expr.children[0]);
      out += expr.negated ? " NOT BETWEEN " : " BETWEEN ";
      out += ExprToSql(*expr.children[1]);
      out += " AND ";
      out += ExprToSql(*expr.children[2]);
      out += ")";
      return out;
    }
    case Expr::Kind::kInList: {
      std::string out = "(";
      out += ExprToSql(*expr.children[0]);
      out += expr.negated ? " NOT IN (" : " IN (";
      for (size_t i = 1; i < expr.children.size(); ++i) {
        if (i > 1) out += ", ";
        out += ExprToSql(*expr.children[i]);
      }
      out += "))";
      return out;
    }
    case Expr::Kind::kIsNull: {
      std::string out = "(";
      out += ExprToSql(*expr.children[0]);
      out += expr.negated ? " IS NOT NULL)" : " IS NULL)";
      return out;
    }
  }
  return "?";
}

namespace {

std::string TableRefToSql(const TableRef& ref) {
  std::string out = ref.name;
  if (ref.kind == TableRef::Kind::kFunctionCall) {
    out += "(";
    for (size_t i = 0; i < ref.args.size(); ++i) {
      if (i > 0) out += ", ";
      out += ExprToSql(*ref.args[i]);
    }
    out += ")";
  }
  if (!ref.alias.empty()) out += " AS " + ref.alias;
  return out;
}

}  // namespace

std::string SelectToSql(const SelectStatement& stmt) {
  std::string out = "SELECT ";
  if (stmt.top_n.has_value()) {
    out += std::string("TOP ") + std::to_string(*stmt.top_n) + " ";
  }
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i > 0) out += ", ";
    const SelectItem& item = stmt.items[i];
    if (item.star) {
      out += item.star_qualifier.empty() ? "*" : item.star_qualifier + ".*";
    } else {
      out += ExprToSql(*item.expr);
      if (!item.alias.empty()) out += " AS " + item.alias;
    }
  }
  out += " FROM " + TableRefToSql(stmt.from);
  for (const JoinClause& join : stmt.joins) {
    out += " JOIN " + TableRefToSql(join.table) + " ON " +
           ExprToSql(*join.condition);
  }
  if (stmt.where != nullptr) {
    out += " WHERE " + ExprToSql(*stmt.where);
  }
  if (!stmt.order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += ExprToSql(*stmt.order_by[i].expr);
      if (stmt.order_by[i].descending) out += " DESC";
    }
  }
  return out;
}

}  // namespace fnproxy::sql
