#include "storage/serialize.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/string_util.h"

namespace gpivot::storage {

namespace {

constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt = 1;
constexpr uint8_t kTagDouble = 2;
constexpr uint8_t kTagString = 3;

// Hard ceiling on any single decoded collection (rows, columns, string
// bytes). A torn length field can claim 2^63 elements; a bounded decoder
// must refuse before reserving, not after. Checked against the remaining
// input, so legitimate large payloads still decode (every element costs at
// least one byte).
Status CheckCount(uint64_t count, size_t remaining, const char* what) {
  if (count > remaining) {
    return Status::InvalidArgument(
        StrCat("decode: ", what, " count ", count,
               " exceeds remaining input (", remaining, " bytes)"));
  }
  return Status::OK();
}

// The wire format is little-endian, as is every host this builds for, so
// a fixed-width field is one memcpy.
static_assert(std::endian::native == std::endian::little);

template <typename T>
char* Store(char* p, T v) {
  std::memcpy(p, &v, sizeof(T));
  return p + sizeof(T);
}

// Bytes EncodeValue writes for `value`.
size_t EncodedSize(const Value& value) {
  if (value.is_null()) return 1;
  return value.is_string() ? 1 + 4 + value.AsString().size() : 1 + 8;
}

// Writes `value`'s EncodedSize(value) bytes at `p`; returns their end.
char* EncodeValueTo(const Value& value, char* p) {
  if (value.is_null()) return Store(p, kTagNull);
  if (value.is_int()) {
    return Store(Store(p, kTagInt), static_cast<uint64_t>(value.AsInt()));
  }
  if (value.is_double()) {
    return Store(Store(p, kTagDouble),
                 std::bit_cast<uint64_t>(value.AsDouble()));
  }
  const std::string_view s = value.AsString();
  p = Store(Store(p, kTagString), static_cast<uint32_t>(s.size()));
  std::memcpy(p, s.data(), s.size());
  return p + s.size();
}

}  // namespace

void BinaryWriter::PutU8(uint8_t v) { Store(Extend(1), v); }

void BinaryWriter::PutU32(uint32_t v) { Store(Extend(4), v); }

void BinaryWriter::PutU64(uint64_t v) { Store(Extend(8), v); }

void BinaryWriter::PatchU32(size_t offset, uint32_t v) {
  GPIVOT_CHECK(offset + 4 <= buffer_.size()) << "PatchU32 past the end";
  Store(buffer_.data() + offset, v);
}

void BinaryWriter::PatchU64(size_t offset, uint64_t v) {
  GPIVOT_CHECK(offset + 8 <= buffer_.size()) << "PatchU64 past the end";
  Store(buffer_.data() + offset, v);
}

char* BinaryWriter::Extend(size_t n) {
  const size_t at = buffer_.size();
  buffer_.resize(at + n);
  return buffer_.data() + at;
}

void BinaryWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buffer_.append(s.data(), s.size());
}

Result<uint8_t> BinaryReader::GetU8() {
  if (remaining() < 1) {
    return Status::InvalidArgument("decode: input exhausted reading u8");
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint32_t> BinaryReader::GetU32() {
  if (remaining() < 4) {
    return Status::InvalidArgument("decode: input exhausted reading u32");
  }
  uint32_t v;
  std::memcpy(&v, data_.data() + pos_, 4);
  pos_ += 4;
  return v;
}

Result<uint64_t> BinaryReader::GetU64() {
  if (remaining() < 8) {
    return Status::InvalidArgument("decode: input exhausted reading u64");
  }
  uint64_t v;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

Result<std::string> BinaryReader::GetString() {
  GPIVOT_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  GPIVOT_RETURN_NOT_OK(CheckCount(len, remaining(), "string byte"));
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

void EncodeValue(const Value& value, BinaryWriter* out) {
  EncodeValueTo(value, out->Extend(EncodedSize(value)));
}

Result<Value> DecodeValue(BinaryReader* in) {
  GPIVOT_ASSIGN_OR_RETURN(uint8_t tag, in->GetU8());
  switch (tag) {
    case kTagNull:
      return Value::Null();
    case kTagInt: {
      GPIVOT_ASSIGN_OR_RETURN(uint64_t bits, in->GetU64());
      return Value::Int(static_cast<int64_t>(bits));
    }
    case kTagDouble: {
      GPIVOT_ASSIGN_OR_RETURN(uint64_t bits, in->GetU64());
      return Value::Real(std::bit_cast<double>(bits));
    }
    case kTagString: {
      GPIVOT_ASSIGN_OR_RETURN(std::string s, in->GetString());
      return Value::Str(std::move(s));
    }
    default:
      return Status::InvalidArgument(
          StrCat("decode: unknown value tag ", static_cast<int>(tag)));
  }
}

void EncodeRow(const Row& row, BinaryWriter* out) {
  // The checkpoint's hot loop: size the row once, then write it in place.
  size_t bytes = 4;
  for (const Value& value : row) bytes += EncodedSize(value);
  char* p = Store(out->Extend(bytes), static_cast<uint32_t>(row.size()));
  for (const Value& value : row) p = EncodeValueTo(value, p);
}

Result<Row> DecodeRow(BinaryReader* in) {
  GPIVOT_ASSIGN_OR_RETURN(uint32_t arity, in->GetU32());
  GPIVOT_RETURN_NOT_OK(CheckCount(arity, in->remaining(), "row value"));
  Row row;
  row.reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    GPIVOT_ASSIGN_OR_RETURN(Value value, DecodeValue(in));
    row.push_back(std::move(value));
  }
  return row;
}

void EncodeSchema(const Schema& schema, BinaryWriter* out) {
  out->PutU32(static_cast<uint32_t>(schema.num_columns()));
  for (const Column& column : schema.columns()) {
    out->PutString(column.name);
    out->PutU8(static_cast<uint8_t>(column.type));
  }
}

Result<Schema> DecodeSchema(BinaryReader* in) {
  GPIVOT_ASSIGN_OR_RETURN(uint32_t ncols, in->GetU32());
  GPIVOT_RETURN_NOT_OK(CheckCount(ncols, in->remaining(), "column"));
  std::vector<Column> columns;
  columns.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    GPIVOT_ASSIGN_OR_RETURN(std::string name, in->GetString());
    GPIVOT_ASSIGN_OR_RETURN(uint8_t type, in->GetU8());
    if (type > static_cast<uint8_t>(DataType::kString)) {
      return Status::InvalidArgument(
          StrCat("decode: unknown column type tag ", static_cast<int>(type)));
    }
    columns.push_back(Column{std::move(name), static_cast<DataType>(type)});
  }
  return Schema(std::move(columns));
}

void EncodeTableHead(const Table& table, BinaryWriter* out) {
  EncodeSchema(table.schema(), out);
  out->PutU32(static_cast<uint32_t>(table.key().size()));
  for (const std::string& key_column : table.key()) out->PutString(key_column);
  out->PutU64(table.num_rows());
}

void EncodeTable(const Table& table, BinaryWriter* out) {
  EncodeTableHead(table, out);
  for (const Row& row : table.rows()) EncodeRow(row, out);
}

Result<Table> DecodeTable(BinaryReader* in) {
  GPIVOT_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(in));
  GPIVOT_ASSIGN_OR_RETURN(uint32_t nkey, in->GetU32());
  GPIVOT_RETURN_NOT_OK(CheckCount(nkey, in->remaining(), "key column"));
  std::vector<std::string> key;
  key.reserve(nkey);
  for (uint32_t i = 0; i < nkey; ++i) {
    GPIVOT_ASSIGN_OR_RETURN(std::string name, in->GetString());
    key.push_back(std::move(name));
  }
  GPIVOT_ASSIGN_OR_RETURN(uint64_t nrows, in->GetU64());
  GPIVOT_RETURN_NOT_OK(CheckCount(nrows, in->remaining(), "row"));
  size_t arity = schema.num_columns();
  Table table(std::move(schema));
  for (uint64_t i = 0; i < nrows; ++i) {
    GPIVOT_ASSIGN_OR_RETURN(Row row, DecodeRow(in));
    if (row.size() != arity) {
      return Status::InvalidArgument(
          StrCat("decode: row arity ", row.size(),
                 " does not match schema (", arity, " columns)"));
    }
    table.AddRow(std::move(row));
  }
  if (!key.empty()) {
    GPIVOT_RETURN_NOT_OK(table.SetKey(std::move(key)));
  }
  return table;
}

void EncodeSourceDeltas(const ivm::SourceDeltas& deltas, BinaryWriter* out) {
  // Canonical order: an unordered_map has none, the wire format must.
  std::map<std::string, const ivm::Delta*> sorted;
  for (const auto& [name, delta] : deltas) sorted.emplace(name, &delta);
  out->PutU32(static_cast<uint32_t>(sorted.size()));
  for (const auto& [name, delta] : sorted) {
    out->PutString(name);
    EncodeTable(delta->inserts, out);
    EncodeTable(delta->deletes, out);
  }
}

Result<ivm::SourceDeltas> DecodeSourceDeltas(BinaryReader* in) {
  GPIVOT_ASSIGN_OR_RETURN(uint32_t ntables, in->GetU32());
  GPIVOT_RETURN_NOT_OK(CheckCount(ntables, in->remaining(), "delta table"));
  ivm::SourceDeltas deltas;
  deltas.reserve(ntables);
  for (uint32_t i = 0; i < ntables; ++i) {
    GPIVOT_ASSIGN_OR_RETURN(std::string name, in->GetString());
    GPIVOT_ASSIGN_OR_RETURN(Table inserts, DecodeTable(in));
    GPIVOT_ASSIGN_OR_RETURN(Table deletes, DecodeTable(in));
    if (!deltas
             .emplace(std::move(name),
                      ivm::Delta{std::move(inserts), std::move(deletes)})
             .second) {
      return Status::InvalidArgument("decode: duplicate table in SourceDeltas");
    }
  }
  return deltas;
}

std::string EncodeTableToString(const Table& table) {
  BinaryWriter writer;
  EncodeTable(table, &writer);
  return writer.Take();
}

}  // namespace gpivot::storage
