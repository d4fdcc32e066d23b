#ifndef GPIVOT_STORAGE_SERIALIZE_H_
#define GPIVOT_STORAGE_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "ivm/delta.h"
#include "relation/row.h"
#include "relation/schema.h"
#include "relation/table.h"
#include "relation/value.h"
#include "util/result.h"

namespace gpivot::storage {

// Canonical binary serialization for the durability layer. The encoding is
// a pure function of the logical value — map-shaped inputs (SourceDeltas)
// are emitted in sorted key order — so encode(decode(encode(x))) ==
// encode(x) byte-for-byte, and two managers in the same logical state
// produce identical checkpoint payloads. Row order inside tables is
// preserved exactly (WAL replay must reconstruct the delta as handed in).
//
// Wire primitives are little-endian fixed width: u8/u32/u64, doubles as
// their IEEE-754 bit pattern (NaN payloads and -0.0 round-trip bit-exactly),
// strings as u32 length + bytes. Values carry a 1-byte type tag. Decoders
// are bounds-checked and return InvalidArgument on any malformed input —
// they never abort, because the input may be a torn or corrupted file.

// Append-only encoder over a std::string buffer. PatchU32/PatchU64
// overwrite a field already written, for a length or checksum that
// precedes what it covers. Extend appends `n` bytes for the caller to fill.
class BinaryWriter {
 public:
  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutString(std::string_view s);
  void PatchU32(size_t offset, uint32_t v);
  void PatchU64(size_t offset, uint64_t v);
  char* Extend(size_t n);

  size_t size() const { return buffer_.size(); }
  const std::string& buffer() const { return buffer_; }
  std::string Take() { return std::move(buffer_); }
  // Keeps the capacity, for a buffer that is drained and refilled.
  void Clear() { buffer_.clear(); }

 private:
  std::string buffer_;
};

// Bounds-checked decoder over a borrowed byte range.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<std::string> GetString();

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// Value: [u8 tag][payload]. Tags: 0 NULL, 1 int64, 2 double, 3 string.
void EncodeValue(const Value& value, BinaryWriter* out);
Result<Value> DecodeValue(BinaryReader* in);

// Row: [u32 arity][values].
void EncodeRow(const Row& row, BinaryWriter* out);
Result<Row> DecodeRow(BinaryReader* in);

// Schema: [u32 ncols][(string name, u8 type)...].
void EncodeSchema(const Schema& schema, BinaryWriter* out);
Result<Schema> DecodeSchema(BinaryReader* in);

// Table: [schema][u32 nkey][key column names][u64 nrows][rows]. The decoded
// table carries the same declared key; rows keep their physical order.
// EncodeTableHead writes everything before the rows, for a writer that
// streams them out a few at a time.
void EncodeTable(const Table& table, BinaryWriter* out);
void EncodeTableHead(const Table& table, BinaryWriter* out);
Result<Table> DecodeTable(BinaryReader* in);

// SourceDeltas: [u32 ntables][(string name, inserts table, deletes
// table)...] in sorted name order (the canonicalization point for the
// unordered map).
void EncodeSourceDeltas(const ivm::SourceDeltas& deltas, BinaryWriter* out);
Result<ivm::SourceDeltas> DecodeSourceDeltas(BinaryReader* in);

// Convenience: one value per buffer.
std::string EncodeTableToString(const Table& table);

}  // namespace gpivot::storage

#endif  // GPIVOT_STORAGE_SERIALIZE_H_
