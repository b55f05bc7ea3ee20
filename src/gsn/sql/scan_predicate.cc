#include "gsn/sql/scan_predicate.h"

#include <optional>
#include <utility>

#include "gsn/sql/executor.h"
#include "gsn/util/strings.h"

namespace gsn::sql {
namespace {

/// Decides `lhs op rhs` under executor comparison semantics; nullopt
/// when the comparison is not decidable (NULL, cross-kind error).
std::optional<bool> Truth(BinaryOp op, const Value& lhs, const Value& rhs) {
  Result<Value> v = EvalBinaryValues(op, lhs, rhs);
  if (!v.ok() || v->is_null()) return std::nullopt;
  Result<Value> b = v->CastTo(DataType::kBool);
  if (!b.ok()) return std::nullopt;
  return b->bool_value();
}

void SplitTopLevelConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->binary_op == BinaryOp::kAnd) {
    SplitTopLevelConjuncts(e->children[0].get(), out);
    SplitTopLevelConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

/// True when `e` is a column reference that binds to the scanned table.
bool BindsToScan(const Expr& e, const std::string& alias, bool sole_table) {
  if (e.kind != ExprKind::kColumnRef) return false;
  if (e.qualifier.empty()) return sole_table;
  return StrToLower(e.qualifier) == StrToLower(alias);
}

bool IsNonNullLiteral(const Expr& e) {
  return e.kind == ExprKind::kLiteral && !e.literal.is_null();
}

ScanBound::Op FlipOp(ScanBound::Op op) {
  switch (op) {
    case ScanBound::Op::kLess: return ScanBound::Op::kGreater;
    case ScanBound::Op::kLessEq: return ScanBound::Op::kGreaterEq;
    case ScanBound::Op::kGreater: return ScanBound::Op::kLess;
    case ScanBound::Op::kGreaterEq: return ScanBound::Op::kLessEq;
    case ScanBound::Op::kEq: return ScanBound::Op::kEq;
  }
  return op;
}

bool ComparisonOp(BinaryOp op, ScanBound::Op* out) {
  switch (op) {
    case BinaryOp::kEq: *out = ScanBound::Op::kEq; return true;
    case BinaryOp::kLess: *out = ScanBound::Op::kLess; return true;
    case BinaryOp::kLessEq: *out = ScanBound::Op::kLessEq; return true;
    case BinaryOp::kGreater: *out = ScanBound::Op::kGreater; return true;
    case BinaryOp::kGreaterEq: *out = ScanBound::Op::kGreaterEq; return true;
    default: return false;
  }
}

const char* OpName(ScanBound::Op op) {
  switch (op) {
    case ScanBound::Op::kEq: return "=";
    case ScanBound::Op::kLess: return "<";
    case ScanBound::Op::kLessEq: return "<=";
    case ScanBound::Op::kGreater: return ">";
    case ScanBound::Op::kGreaterEq: return ">=";
  }
  return "?";
}

/// Walks a statement tree collecting the column names that may bind to
/// one base-table scan.
class ColumnCollector {
 public:
  ColumnCollector(const std::string& alias, const std::string& table_name)
      : alias_(StrToLower(alias)), table_(StrToLower(table_name)) {}

  std::optional<std::set<std::string>> Collect(const SelectStmt& stmt) {
    Statement(stmt);
    if (all_) return std::nullopt;
    return std::move(names_);
  }

 private:
  bool Matches(const std::string& qualifier) const {
    if (qualifier.empty()) return true;
    const std::string q = StrToLower(qualifier);
    return q == alias_ || q == table_;
  }

  void Expression(const Expr* e) {
    if (e == nullptr || all_) return;
    if (e->kind == ExprKind::kColumnRef && Matches(e->qualifier)) {
      // The executor also matches an unqualified name against a field's
      // full `alias.column` name; keep both spellings.
      const std::string column = StrToLower(e->column);
      names_.insert(column);
      const size_t dot = column.rfind('.');
      if (dot != std::string::npos) names_.insert(column.substr(dot + 1));
    }
    for (const auto& child : e->children) Expression(child.get());
    if (e->subquery) Statement(*e->subquery);
  }

  void Table(const TableRef* ref) {
    if (ref == nullptr || all_) return;
    if (ref->subquery) Statement(*ref->subquery);
    Table(ref->left.get());
    Table(ref->right.get());
    Expression(ref->join_condition.get());
  }

  void Statement(const SelectStmt& stmt) {
    for (const SelectItem& item : stmt.items) {
      if (item.is_star) {
        if (item.star_qualifier.empty() || Matches(item.star_qualifier)) {
          all_ = true;
        }
      } else {
        Expression(item.expr.get());
      }
    }
    for (const auto& ref : stmt.from) Table(ref.get());
    Expression(stmt.where.get());
    for (const auto& e : stmt.group_by) Expression(e.get());
    Expression(stmt.having.get());
    for (const OrderByItem& item : stmt.order_by) Expression(item.expr.get());
    if (stmt.set_rhs) Statement(*stmt.set_rhs);
  }

  const std::string alias_;
  const std::string table_;
  bool all_ = false;
  std::set<std::string> names_;
};

}  // namespace

bool ScanPredicate::NeedsColumn(const std::string& column) const {
  return !columns.has_value() || columns->count(column) > 0;
}

std::optional<std::set<std::string>> ReferencedColumns(
    const SelectStmt& stmt, const std::string& alias,
    const std::string& table_name) {
  return ColumnCollector(alias, table_name).Collect(stmt);
}

std::string ScanBound::ToString() const {
  return column + " " + OpName(op) + " " + value.ToString();
}

std::string ScanPredicate::ToString() const {
  std::string out;
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (i > 0) out += " AND ";
    out += bounds[i].ToString();
  }
  return out;
}

ScanPredicate ExtractScanPredicate(const Expr* where, const std::string& alias,
                                   bool sole_table) {
  ScanPredicate pred;
  std::vector<const Expr*> conjuncts;
  SplitTopLevelConjuncts(where, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBinary) {
      ScanBound::Op op;
      if (!ComparisonOp(c->binary_op, &op)) continue;
      const Expr& lhs = *c->children[0];
      const Expr& rhs = *c->children[1];
      if (BindsToScan(lhs, alias, sole_table) && IsNonNullLiteral(rhs)) {
        pred.bounds.push_back(
            ScanBound{StrToLower(lhs.column), op, rhs.literal});
      } else if (BindsToScan(rhs, alias, sole_table) &&
                 IsNonNullLiteral(lhs)) {
        pred.bounds.push_back(
            ScanBound{StrToLower(rhs.column), FlipOp(op), lhs.literal});
      }
    } else if (c->kind == ExprKind::kBetween && !c->negated) {
      // children: [value, lo, hi]
      const Expr& v = *c->children[0];
      if (!BindsToScan(v, alias, sole_table)) continue;
      const std::string column = StrToLower(v.column);
      if (IsNonNullLiteral(*c->children[1])) {
        pred.bounds.push_back(ScanBound{column, ScanBound::Op::kGreaterEq,
                                        c->children[1]->literal});
      }
      if (IsNonNullLiteral(*c->children[2])) {
        pred.bounds.push_back(ScanBound{column, ScanBound::Op::kLessEq,
                                        c->children[2]->literal});
      }
    }
  }
  return pred;
}

bool RangeMayMatch(const Value& min_value, const Value& max_value,
                   const ScanBound& bound) {
  if (min_value.is_null() || max_value.is_null()) return true;
  std::optional<bool> t;
  switch (bound.op) {
    case ScanBound::Op::kEq:
      // value inside [min, max]?
      t = Truth(BinaryOp::kLess, bound.value, min_value);
      if (t.has_value() && *t) return false;
      t = Truth(BinaryOp::kGreater, bound.value, max_value);
      if (t.has_value() && *t) return false;
      return true;
    case ScanBound::Op::kLess:
      t = Truth(BinaryOp::kLess, min_value, bound.value);
      break;
    case ScanBound::Op::kLessEq:
      t = Truth(BinaryOp::kLessEq, min_value, bound.value);
      break;
    case ScanBound::Op::kGreater:
      t = Truth(BinaryOp::kGreater, max_value, bound.value);
      break;
    case ScanBound::Op::kGreaterEq:
      t = Truth(BinaryOp::kGreaterEq, max_value, bound.value);
      break;
  }
  // Undecidable comparisons keep the chunk (conservative).
  return !t.has_value() || *t;
}

}  // namespace gsn::sql
