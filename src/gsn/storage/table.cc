#include "gsn/storage/table.h"

#include <algorithm>

#include "gsn/storage/columnar/catalog.h"
#include "gsn/util/logging.h"

namespace gsn::storage {
namespace {

bool IsLowerBound(sql::ScanBound::Op op) {
  return op == sql::ScanBound::Op::kGreater ||
         op == sql::ScanBound::Op::kGreaterEq;
}

/// The bounds of `predicate` on `timed`, each one-sided: over rows in
/// timed order a lower bound can hold only on a suffix and an upper
/// bound only on a prefix. `=` splits into `>=` and `<=`.
std::vector<sql::ScanBound> OneSidedTimedBounds(
    const sql::ScanPredicate& predicate, const std::string& timed) {
  std::vector<sql::ScanBound> out;
  for (const sql::ScanBound& bound : predicate.bounds) {
    if (bound.column != timed) continue;
    if (bound.op != sql::ScanBound::Op::kEq) {
      out.push_back(bound);
      continue;
    }
    out.push_back({bound.column, sql::ScanBound::Op::kGreaterEq, bound.value});
    out.push_back({bound.column, sql::ScanBound::Op::kLessEq, bound.value});
  }
  return out;
}

/// Narrows timed-ordered [*first, *last) to the rows that may satisfy
/// every bound. Each row is probed with the executor's own comparison
/// (RangeMayMatch over [t, t]), so int and timestamp literals keep
/// their WHERE semantics; only rows WHERE must drop are cut.
template <typename It, typename TimedOf>
void NarrowToTimedBounds(const std::vector<sql::ScanBound>& bounds,
                         TimedOf timed_of, It* first, It* last) {
  for (const sql::ScanBound& bound : bounds) {
    const auto may_match = [&](const auto& row) {
      const Value& t = timed_of(row);
      return sql::RangeMayMatch(t, t, bound);
    };
    if (IsLowerBound(bound.op)) {
      *first = std::partition_point(
          *first, *last, [&](const auto& row) { return !may_match(row); });
    } else {
      *last = std::partition_point(*first, *last, may_match);
    }
  }
}

}  // namespace

Table::Table(std::string name, Schema element_schema, WindowSpec retention)
    : name_(std::move(name)),
      element_schema_(std::move(element_schema)),
      row_schema_(element_schema_.WithTimedField()),
      retention_(retention) {}

Status Table::InsertLocked(const StreamElement& element) {
  if (element.values.size() != element_schema_.size()) {
    return Status::InvalidArgument(
        "element arity " + std::to_string(element.values.size()) +
        " != schema arity " + std::to_string(element_schema_.size()) +
        " for table " + name_);
  }
  Entry entry;
  entry.timed = element.timed;
  entry.bytes = 8 + element.PayloadBytes();
  entry.row = Relation::RowFromElement(element);
  if (!rows_.empty() && entry.timed < rows_.back().timed) sorted_ = false;
  approx_bytes_ += entry.bytes;
  rows_.push_back(std::move(entry));
  EvictLocked(element.timed);
  if (rows_.empty()) sorted_ = true;
  return Status::OK();
}

Status Table::Insert(const StreamElement& element) {
  std::lock_guard<std::mutex> lock(mu_);
  return InsertLocked(element);
}

Status Table::InsertBatch(const std::vector<StreamElement>& elements) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const StreamElement& element : elements) {
    GSN_RETURN_IF_ERROR(InsertLocked(element));
  }
  return Status::OK();
}

void Table::EvictLocked(Timestamp now) {
  const auto evict_front = [this] {
    if (capture_evicted_) {
      if (!pending_evicted_.empty() &&
          rows_.front().timed < PendingTimed(pending_evicted_.size() - 1)) {
        pending_sorted_ = false;
      }
      pending_evicted_.push_back(std::move(rows_.front().row));
      while (pending_evicted_.size() > max_pending_rows_) {
        pending_evicted_.pop_front();
        ++pending_dropped_;
      }
    }
    approx_bytes_ -= std::min(approx_bytes_, rows_.front().bytes);
    rows_.pop_front();
  };
  if (retention_.kind == WindowSpec::Kind::kCount) {
    while (rows_.size() > static_cast<size_t>(retention_.count)) {
      evict_front();
    }
  } else {
    const Timestamp cutoff = now - retention_.duration_micros;
    while (!rows_.empty() && rows_.front().timed <= cutoff) {
      evict_front();
    }
  }
}

Relation Table::Scan() const {
  std::lock_guard<std::mutex> lock(mu_);
  Relation::RowList rows;
  rows.reserve(rows_.size());
  for (const Entry& e : rows_) rows.push_back(e.row);
  return Relation(row_schema_, std::move(rows));
}

Relation Table::Scan(Timestamp now) const {
  std::lock_guard<std::mutex> lock(mu_);
  Relation::RowList rows;
  if (retention_.kind == WindowSpec::Kind::kCount) {
    rows.reserve(rows_.size());
    for (const Entry& e : rows_) rows.push_back(e.row);
    return Relation(row_schema_, std::move(rows));
  }
  const Timestamp cutoff = now - retention_.duration_micros;
  if (sorted_) {
    auto first = std::partition_point(
        rows_.begin(), rows_.end(),
        [cutoff](const Entry& e) { return e.timed <= cutoff; });
    rows.reserve(static_cast<size_t>(rows_.end() - first));
    for (auto it = first; it != rows_.end(); ++it) rows.push_back(it->row);
  } else {
    for (const Entry& e : rows_) {
      if (e.timed > cutoff) rows.push_back(e.row);
    }
  }
  return Relation(row_schema_, std::move(rows));
}

std::vector<StreamElement> Table::SnapshotElements() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<StreamElement> out;
  out.reserve(rows_.size());
  for (const Entry& e : rows_) {
    StreamElement element;
    element.timed = e.timed;
    // Row layout is `timed` first, then the element values.
    element.values.assign(e.row->begin() + 1, e.row->end());
    out.push_back(std::move(element));
  }
  return out;
}

void Table::EnableHistoryCapture(size_t max_pending_rows) {
  std::lock_guard<std::mutex> lock(mu_);
  capture_evicted_ = true;
  max_pending_rows_ = max_pending_rows == 0 ? 1 : max_pending_rows;
}

bool Table::history_capture_enabled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capture_evicted_;
}

Relation::RowList Table::TakeEvicted() {
  std::lock_guard<std::mutex> lock(mu_);
  Relation::RowList out(pending_evicted_.begin(), pending_evicted_.end());
  pending_evicted_.clear();
  pending_sorted_ = true;
  return out;
}

void Table::RestoreEvicted(Relation::RowList rows) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_evicted_.insert(pending_evicted_.begin(), rows.begin(), rows.end());
  while (pending_evicted_.size() > max_pending_rows_ &&
         max_pending_rows_ > 0) {
    pending_evicted_.pop_front();
    ++pending_dropped_;
  }
  pending_sorted_ = true;
  for (size_t i = 1; i < pending_evicted_.size() && pending_sorted_; ++i) {
    pending_sorted_ = PendingTimed(i - 1) <= PendingTimed(i);
  }
}

Timestamp Table::PendingTimed(size_t i) const {
  const Value& timed = (*pending_evicted_[i])[0];
  return timed.is_timestamp() ? timed.timestamp_value() : 0;
}

Relation::RowList Table::PendingEvictedRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Relation::RowList(pending_evicted_.begin(), pending_evicted_.end());
}

void Table::DropPendingPrefix(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  n = std::min(n, pending_evicted_.size());
  pending_evicted_.erase(pending_evicted_.begin(),
                         pending_evicted_.begin() + static_cast<long>(n));
  if (pending_evicted_.empty()) pending_sorted_ = true;
}

uint64_t Table::pending_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_dropped_;
}

Relation Table::ScanUnified(const columnar::SegmentCatalog* catalog,
                            const sql::ScanPredicate& predicate,
                            sql::ScanStats* stats) const {
  Relation::RowList rows;
  if (catalog != nullptr) {
    // Cold tier first: segments are strictly older than anything still
    // pending or live, so appending tiers in order keeps the relation
    // oldest-first end to end.
    Status scanned =
        catalog->Scan(name_, row_schema_, predicate, &rows, stats);
    if (!scanned.ok()) {
      GSN_LOG(kWarn, "storage") << "segment scan failed for " << name_ << ": "
                                << scanned.ToString();
    }
  }
  const std::vector<sql::ScanBound> timed_bounds =
      OneSidedTimedBounds(predicate, StrToLower(row_schema_.field(0).name));
  std::lock_guard<std::mutex> lock(mu_);
  // While a tier is timed-ordered, a `timed` bound trims it to one
  // contiguous range by binary search; otherwise every row is copied
  // and WHERE drops the misses.
  auto pending_first = pending_evicted_.begin();
  auto pending_last = pending_evicted_.end();
  if (pending_sorted_) {
    NarrowToTimedBounds(
        timed_bounds,
        [](const Relation::SharedRow& row) -> const Value& { return (*row)[0]; },
        &pending_first, &pending_last);
  }
  auto live_first = rows_.begin();
  auto live_last = rows_.end();
  if (sorted_) {
    NarrowToTimedBounds(
        timed_bounds,
        [](const Entry& e) -> const Value& { return (*e.row)[0]; },
        &live_first, &live_last);
  }
  if (stats != nullptr) {
    stats->pending_rows += pending_last - pending_first;
    stats->memory_rows += live_last - live_first;
  }
  rows.reserve(rows.size() + static_cast<size_t>(pending_last - pending_first) +
               static_cast<size_t>(live_last - live_first));
  rows.insert(rows.end(), pending_first, pending_last);
  for (auto it = live_first; it != live_last; ++it) rows.push_back(it->row);
  return Relation(row_schema_, std::move(rows));
}

size_t Table::NumRows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rows_.size();
}

size_t Table::ApproximateBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return approx_bytes_;
}

void Table::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rows_.clear();
  pending_evicted_.clear();
  approx_bytes_ = 0;
  sorted_ = true;
  pending_sorted_ = true;
}

Result<Table*> TableManager::CreateTable(const std::string& name,
                                         Schema element_schema,
                                         WindowSpec retention) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string key = StrToLower(name);
  if (tables_.count(key)) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  auto table =
      std::make_unique<Table>(name, std::move(element_schema), retention);
  Table* ptr = table.get();
  tables_[key] = std::move(table);
  return ptr;
}

Status TableManager::DropTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.erase(StrToLower(name)) == 0) {
    return Status::NotFound("no such table: " + name);
  }
  return Status::OK();
}

Result<Table*> TableManager::GetTableHandle(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(StrToLower(name));
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  return it->second.get();
}

std::vector<std::string> TableManager::ListTables() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [key, table] : tables_) out.push_back(table->name());
  return out;
}

void TableManager::AttachHistory(const columnar::SegmentCatalog* catalog) {
  std::lock_guard<std::mutex> lock(mu_);
  history_ = catalog;
}

const columnar::SegmentCatalog* TableManager::history() const {
  std::lock_guard<std::mutex> lock(mu_);
  return history_;
}

Result<Relation> TableManager::GetTable(const std::string& name) const {
  return GetTableFiltered(name, sql::ScanPredicate{}, nullptr);
}

Result<Relation> TableManager::GetTableFiltered(
    const std::string& name, const sql::ScanPredicate& predicate,
    sql::ScanStats* stats) const {
  Table* table = nullptr;
  const columnar::SegmentCatalog* catalog = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(StrToLower(name));
    if (it == tables_.end()) return Status::NotFound("no such table: " + name);
    table = it->second.get();
    catalog = history_;
  }
  // Without an attached history tier this degenerates to the live
  // window scan tables always served.
  if (catalog == nullptr && stats == nullptr) return table->Scan();
  return table->ScanUnified(catalog, predicate, stats);
}

}  // namespace gsn::storage
