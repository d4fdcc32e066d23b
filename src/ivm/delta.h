#ifndef GPIVOT_IVM_DELTA_H_
#define GPIVOT_IVM_DELTA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "relation/keyed_table.h"
#include "relation/table.h"
#include "util/result.h"

namespace gpivot::ivm {

// A batch of changes to one relation under bag semantics: `inserts` (Δ) are
// added and `deletes` (∇) removed. Updates are modeled as delete + insert,
// as in the paper (§9 lists native update maintenance as future work).
struct Delta {
  Table inserts;
  Table deletes;

  static Delta Empty(const Schema& schema) {
    return Delta{Table(schema), Table(schema)};
  }

  bool empty() const { return inserts.empty() && deletes.empty(); }

  std::string ToString() const;
};

// A propagated delta, shared read-only between the views that read it.
using DeltaPtr = std::shared_ptr<const Delta>;

// Changes per base table, keyed by catalog table name.
using SourceDeltas = std::unordered_map<std::string, Delta>;

// Where `delta` lands in `store`: the positions of the stored rows its ∇
// rows remove, in descending order, so swap-with-last deletes taken in that
// order never move a row still to be deleted. Validates the whole delta
// before anything mutates: sides must match the table's schema
// (InvalidArgument), every ∇ row must match a distinct stored row, and — when
// the store has a key index — no Δ key may repeat or collide with a stored
// key that survives the ∇ rows (ConstraintViolation). An indexed store is
// located by key lookups (then full-row equality), O(delta); an unindexed
// one by one scan against the ∇ multiset, whose length `base_rows_read`
// (optional) accumulates.
Result<std::vector<size_t>> LocateDelta(const KeyedTable& store,
                                        const Delta& delta,
                                        uint64_t* base_rows_read = nullptr);

// Advances `store` by `delta` in place: builds the key index if the table
// is keyed and has none, swap-with-last deletes the ∇ rows, then appends the
// Δ rows, logging each mutation to `undo`. All-or-nothing: LocateDelta
// validates before the first mutation, so a failure leaves `store` as it
// was.
Status AdvanceInPlace(KeyedTable* store, const Delta& delta, UndoLog* undo,
                      uint64_t* base_rows_read = nullptr);

// The mutating half of AdvanceInPlace, for a caller that already located
// `delta` in `store` (`positions` is LocateDelta's result) and has not
// changed the store since.
Status AdvanceLocated(KeyedTable* store, const Delta& delta,
                      const std::vector<size_t>& positions, UndoLog* undo);

// AdvanceInPlace on a bare table (the index, when keyed, is built for the
// call and dropped). On failure `table` is untouched.
Status ApplyDeltaToTable(Table* table, const Delta& delta);

}  // namespace gpivot::ivm

#endif  // GPIVOT_IVM_DELTA_H_
