#include "relation/key_index.h"

#include <algorithm>
#include <bit>

#include "util/check.h"
#include "util/string_util.h"

namespace gpivot {

namespace {

uint32_t Fold(size_t hash) {
  return static_cast<uint32_t>(hash ^ (static_cast<uint64_t>(hash) >> 32));
}

}  // namespace

Result<KeyIndex> KeyIndex::Build(const Table& table,
                                 std::vector<size_t> key_indices) {
  KeyIndex index(std::move(key_indices), table.num_rows());
  for (size_t i = 0; i < table.num_rows(); ++i) {
    if (index.InsertUnique(table, table.rows()[i], i).has_value()) {
      return Status::ConstraintViolation(StrCat(
          "KeyIndex: duplicate key ",
          RowToString(ProjectRow(table.rows()[i], index.key_indices_))));
    }
  }
  return index;
}

KeyIndex::KeyIndex(std::vector<size_t> key_indices, size_t expected_entries)
    : key_indices_(std::move(key_indices)) {
  Reserve(expected_entries);
}

size_t KeyIndex::Home(uint32_t tag) const {
  // Fibonacci hashing: the top bits of the product spread any tag pattern.
  return static_cast<size_t>((uint64_t{tag} * 0x9e3779b97f4a7c15ULL) >>
                             shift_);
}

uint32_t KeyIndex::TagOf(const Table& table, size_t position) const {
  return Fold(HashRowAt(table.rows()[position], key_indices_));
}

template <typename Matches>
size_t KeyIndex::Probe(uint32_t tag, Matches matches) const {
  const size_t mask = slots_.size() - 1;
  // Terminates: the load stays under 3/4, so an empty slot always exists.
  for (size_t i = Home(tag);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.position == kEmpty) return i;
    if (slot.tag == tag && matches(slot.position)) return i;
  }
}

std::optional<size_t> KeyIndex::Lookup(
    const Table& table, const Row& probe,
    const std::vector<size_t>& probe_indices) const {
  const std::vector<Row>& rows = table.rows();
  const Slot& slot =
      slots_[Probe(Fold(HashRowAt(probe, probe_indices)), [&](uint32_t at) {
        return at < rows.size() &&
               RowsEqualAt(rows[at], key_indices_, probe, probe_indices);
      })];
  if (slot.position == kEmpty) return std::nullopt;
  return slot.position;
}

std::optional<size_t> KeyIndex::LookupKey(const Table& table, const Row& key,
                                          size_t hash) const {
  const std::vector<Row>& rows = table.rows();
  const Slot& slot = slots_[Probe(Fold(hash), [&](uint32_t at) {
    if (at >= rows.size() || key.size() != key_indices_.size()) return false;
    for (size_t i = 0; i < key.size(); ++i) {
      if (rows[at][key_indices_[i]] != key[i]) return false;
    }
    return true;
  })];
  if (slot.position == kEmpty) return std::nullopt;
  return slot.position;
}

void KeyIndex::Reserve(size_t entries) {
  size_t capacity = std::max<size_t>(slots_.size(), 16);
  while (entries * 4 >= capacity * 3) capacity *= 2;
  if (capacity == slots_.size()) return;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.position == kEmpty) continue;
    size_t i = Home(slot.tag);
    while (slots_[i].position != kEmpty) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

std::optional<size_t> KeyIndex::InsertUnique(const Table& table,
                                             const Row& row, size_t position,
                                             size_t hash) {
  GPIVOT_CHECK(position < kEmpty) << "KeyIndex: row position overflows";
  Reserve(size_ + 1);
  const std::vector<Row>& rows = table.rows();
  const uint32_t tag = Fold(hash);
  Slot& slot = slots_[Probe(tag, [&](uint32_t at) {
    return at < rows.size() &&
           RowsEqualAt(rows[at], key_indices_, row, key_indices_);
  })];
  if (slot.position != kEmpty) return slot.position;
  slot = Slot{tag, static_cast<uint32_t>(position)};
  ++size_;
  return std::nullopt;
}

void KeyIndex::Insert(const Table& table, size_t position) {
  GPIVOT_CHECK(!InsertUnique(table, table.rows()[position], position)
                    .has_value())
      << "KeyIndex::Insert duplicate key "
      << RowToString(ProjectRow(table.rows()[position], key_indices_));
}

size_t KeyIndex::SlotOf(uint32_t tag, size_t position) const {
  size_t i = Probe(tag, [&](uint32_t at) { return at == position; });
  GPIVOT_CHECK(slots_[i].position == position)
      << "KeyIndex: no entry for row " << position;
  return i;
}

void KeyIndex::Erase(const Table& table, size_t position) {
  size_t hole = SlotOf(TagOf(table, position), position);
  const size_t mask = slots_.size() - 1;
  // Backward-shift deletion: pull later run members into the hole unless
  // their home lies cyclically in (hole, j], so probing never needs
  // tombstones.
  for (size_t j = (hole + 1) & mask; slots_[j].position != kEmpty;
       j = (j + 1) & mask) {
    if (((j - Home(slots_[j].tag)) & mask) >= ((j - hole) & mask)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  --size_;
}

void KeyIndex::Move(const Table& table, size_t from, size_t to) {
  slots_[SlotOf(TagOf(table, to), from)].position = static_cast<uint32_t>(to);
}

}  // namespace gpivot
