#ifndef GPIVOT_RELATION_KEY_INDEX_H_
#define GPIVOT_RELATION_KEY_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "relation/row.h"
#include "relation/table.h"
#include "util/result.h"

namespace gpivot {

// Hash index from a table's key to row positions. This is the in-memory
// analogue of the unique index commercial engines keep on a materialized
// view's key; the MERGE apply phase and the in-place base advance rely on it.
//
// The index is position-only: an open-addressing (linear probing) array of
// (hash tag, row position) slots, 8 bytes each, with key equality checked
// against the table's own rows. So every call that compares keys takes the
// table the index was built over, and copying an index is one flat copy.
// The positions must be patched (Insert / Erase / Move) whenever the table
// mutates.
class KeyIndex {
 public:
  // Builds an index over `table` using `key_indices` (positions into the
  // table's schema). A duplicate key is a ConstraintViolation: table
  // contents come from callers, so the build must not abort on bad data.
  static Result<KeyIndex> Build(const Table& table,
                                std::vector<size_t> key_indices);

  // An empty index on `key_indices`, sized to take `expected_entries`
  // entries without growing.
  explicit KeyIndex(std::vector<size_t> key_indices,
                    size_t expected_entries = 0);

  const std::vector<size_t>& key_indices() const { return key_indices_; }

  // Position of the row of `table` whose key equals the key of `probe`
  // projected at `probe_indices`, if any.
  std::optional<size_t> Lookup(const Table& table, const Row& probe,
                               const std::vector<size_t>& probe_indices) const;

  // Position of the row of `table` whose key equals `key` (already
  // projected). `hash` must be HashRow(key): a caller that already hashed
  // the key passes it, so the key is hashed once.
  std::optional<size_t> LookupKey(const Table& table, const Row& key) const {
    return LookupKey(table, key, HashRow(key));
  }
  std::optional<size_t> LookupKey(const Table& table, const Row& key,
                                  size_t hash) const;

  // Registers `row`, which sits at or is about to be appended at `position`
  // of `table`, unless its key is present: one hash and one probe both
  // check for the key and claim its slot. Returns the present row's
  // position, or nullopt when registered. A caller that already hashed the
  // key passes `hash` == HashRowAt(row, key_indices()).
  std::optional<size_t> InsertUnique(const Table& table, const Row& row,
                                     size_t position) {
    return InsertUnique(table, row, position, HashRowAt(row, key_indices_));
  }
  std::optional<size_t> InsertUnique(const Table& table, const Row& row,
                                     size_t position, size_t hash);

  // Registers the row at `position` of `table` (its key must be absent).
  void Insert(const Table& table, size_t position);

  // Removes the entry of the row at `position` of `table`. Call it while
  // the row still sits there.
  void Erase(const Table& table, size_t position);

  // The row now at `to` in `table` used to live at `from` (swap-with-last
  // deletion): re-points its entry.
  void Move(const Table& table, size_t from, size_t to);

  size_t size() const { return size_; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint32_t tag = 0;  // folded key hash; also fixes the home slot
    uint32_t position = kEmpty;
  };

  size_t Home(uint32_t tag) const;
  uint32_t TagOf(const Table& table, size_t position) const;
  // First slot from `tag`'s home whose row satisfies `matches`, or the
  // empty slot ending the probe run.
  template <typename Matches>
  size_t Probe(uint32_t tag, Matches matches) const;
  // The slot holding `position` for a row whose key hashes to `tag`.
  size_t SlotOf(uint32_t tag, size_t position) const;
  // Resizes to hold `entries` at under 3/4 load; entries rehash by tag.
  void Reserve(size_t entries);

  std::vector<size_t> key_indices_;
  std::vector<Slot> slots_;  // power-of-two size
  size_t size_ = 0;
  int shift_ = 64;  // 64 - log2(slots_.size())
};

}  // namespace gpivot

#endif  // GPIVOT_RELATION_KEY_INDEX_H_
