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

}  // namespace

void BinaryWriter::PutU8(uint8_t v) {
  buffer_.push_back(static_cast<char>(v));
}

void BinaryWriter::PutU32(uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buffer_.append(bytes, 4);
}

void BinaryWriter::PutU64(uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buffer_.append(bytes, 8);
}

void BinaryWriter::PatchU64(size_t offset, uint64_t v) {
  GPIVOT_CHECK(offset + 8 <= buffer_.size()) << "PatchU64 past the end";
  for (int i = 0; i < 8; ++i) {
    buffer_[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void BinaryWriter::PutDouble(double v) {
  PutU64(std::bit_cast<uint64_t>(v));
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
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> BinaryReader::GetU64() {
  if (remaining() < 8) {
    return Status::InvalidArgument("decode: input exhausted reading u64");
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<double> BinaryReader::GetDouble() {
  GPIVOT_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  return std::bit_cast<double>(bits);
}

Result<std::string> BinaryReader::GetString() {
  GPIVOT_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  GPIVOT_RETURN_NOT_OK(CheckCount(len, remaining(), "string byte"));
  std::string out(data_.substr(pos_, len));
  pos_ += len;
  return out;
}

void EncodeValue(const Value& value, BinaryWriter* out) {
  if (value.is_null()) {
    out->PutU8(kTagNull);
  } else if (value.is_int()) {
    out->PutU8(kTagInt);
    out->PutU64(static_cast<uint64_t>(value.AsInt()));
  } else if (value.is_double()) {
    out->PutU8(kTagDouble);
    out->PutDouble(value.AsDouble());
  } else {
    out->PutU8(kTagString);
    out->PutString(value.AsString());
  }
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
      GPIVOT_ASSIGN_OR_RETURN(double v, in->GetDouble());
      return Value::Real(v);
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
  out->PutU32(static_cast<uint32_t>(row.size()));
  for (const Value& value : row) EncodeValue(value, out);
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

void EncodeTable(const Table& table, BinaryWriter* out) {
  EncodeSchema(table.schema(), out);
  out->PutU32(static_cast<uint32_t>(table.key().size()));
  for (const std::string& key_column : table.key()) out->PutString(key_column);
  out->PutU64(table.num_rows());
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

void EncodeDelta(const ivm::Delta& delta, BinaryWriter* out) {
  EncodeTable(delta.inserts, out);
  EncodeTable(delta.deletes, out);
}

Result<ivm::Delta> DecodeDelta(BinaryReader* in) {
  GPIVOT_ASSIGN_OR_RETURN(Table inserts, DecodeTable(in));
  GPIVOT_ASSIGN_OR_RETURN(Table deletes, DecodeTable(in));
  return ivm::Delta{std::move(inserts), std::move(deletes)};
}

void EncodeSourceDeltas(const ivm::SourceDeltas& deltas, BinaryWriter* out) {
  // Canonical order: an unordered_map has none, the wire format must.
  std::map<std::string, const ivm::Delta*> sorted;
  for (const auto& [name, delta] : deltas) sorted.emplace(name, &delta);
  out->PutU32(static_cast<uint32_t>(sorted.size()));
  for (const auto& [name, delta] : sorted) {
    out->PutString(name);
    EncodeDelta(*delta, out);
  }
}

Result<ivm::SourceDeltas> DecodeSourceDeltas(BinaryReader* in) {
  GPIVOT_ASSIGN_OR_RETURN(uint32_t ntables, in->GetU32());
  GPIVOT_RETURN_NOT_OK(CheckCount(ntables, in->remaining(), "delta table"));
  ivm::SourceDeltas deltas;
  deltas.reserve(ntables);
  for (uint32_t i = 0; i < ntables; ++i) {
    GPIVOT_ASSIGN_OR_RETURN(std::string name, in->GetString());
    GPIVOT_ASSIGN_OR_RETURN(ivm::Delta delta, DecodeDelta(in));
    if (!deltas.emplace(std::move(name), std::move(delta)).second) {
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
