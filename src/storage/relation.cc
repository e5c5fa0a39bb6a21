#include "storage/relation.h"

#include <algorithm>

#include "base/string_util.h"

namespace wdl {

Status Relation::CheckTuple(const Tuple& tuple) const {
  if (tuple.size() != decl_.arity()) {
    return Status::OutOfRange(StrFormat(
        "tuple %s has arity %zu; relation %s expects %zu",
        TupleToString(tuple).c_str(), tuple.size(),
        decl_.PredicateId().c_str(), decl_.arity()));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    ValueKind want = decl_.columns[i].type;
    if (want != ValueKind::kAny && tuple[i].kind() != want) {
      return Status::InvalidArgument(StrFormat(
          "tuple %s: column %zu (%s) of %s expects %s but got %s",
          TupleToString(tuple).c_str(), i, decl_.columns[i].name.c_str(),
          decl_.PredicateId().c_str(), ValueKindToString(want),
          ValueKindToString(tuple[i].kind())));
    }
  }
  return Status::OK();
}

Result<bool> Relation::Insert(Tuple tuple) {
  WDL_RETURN_IF_ERROR(CheckTuple(tuple));
  auto [it, inserted] = tuples_.insert(std::move(tuple));
  if (inserted) {
    ++version_;
    indexes_.OnInsert(&*it);
  }
  return inserted;
}

Result<bool> Relation::Remove(const Tuple& tuple) {
  WDL_RETURN_IF_ERROR(CheckTuple(tuple));
  auto it = tuples_.find(tuple);
  if (it == tuples_.end()) return false;
  indexes_.OnRemove(&*it);
  tuples_.erase(it);
  ++version_;
  return true;
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> out(tuples_.begin(), tuples_.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace wdl
