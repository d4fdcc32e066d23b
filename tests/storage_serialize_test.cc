// Properties of the durability layer's canonical binary serialization:
// decode(encode(x)) reproduces x exactly (including NaN payloads, -0.0,
// NULLs, empty tables, declared keys), re-encoding the decoded value is
// byte-identical (canonical form), and every single-bit corruption of a
// framed WAL entry or checkpoint file is caught by the CRC32C checksum —
// never by a crash or a silently wrong decode.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "ivm/delta.h"
#include "storage/checkpoint.h"
#include "storage/serialize.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/crc32c.h"
#include "util/random.h"

namespace gpivot::storage {
namespace {

using gpivot::testing::I;
using gpivot::testing::MakeTable;
using gpivot::testing::N;
using gpivot::testing::S;

TEST(Crc32cTest, KnownVectors) {
  // The CRC-32C check value from RFC 3720 / the Castagnoli literature.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0x00000000u);
  // 32 zero bytes, another published vector.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
}

TEST(Crc32cTest, ChunkedEqualsWhole) {
  std::string data = "incremental maintenance of complex ROLAP views";
  uint32_t whole = Crc32c(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t first = Crc32c(data.data(), split, 0);
    uint32_t chunked = Crc32c(data.data() + split, data.size() - split, first);
    EXPECT_EQ(chunked, whole) << "split=" << split;
  }
}

// Crc32c (the CRC32 instruction where the host has it) against the
// portable table loop, on random bytes: every length up to 300 at every
// start offset mod 8, whole and split at every point.
TEST(Crc32cTest, MatchesPortableAtEveryLengthOffsetAndSplit) {
  Rng rng(32);
  std::string bytes(300 + 8, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.Index(256));
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const char* data = bytes.data() + offset;
      const uint32_t want = Crc32cPortable(data, len);
      ASSERT_EQ(Crc32c(data, len), want) << "offset=" << offset
                                         << " len=" << len;
      for (size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(Crc32c(data + split, len - split, Crc32c(data, split)), want)
            << "offset=" << offset << " len=" << len << " split=" << split;
      }
    }
  }
}

Value RandomValue(Rng* rng) {
  switch (rng->Index(6)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(rng->Int(std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max()));
    case 2:
      return Value::Real(rng->Real(-1e12, 1e12));
    case 3:
      // Specials that only survive bit-pattern encoding.
      switch (rng->Index(4)) {
        case 0:
          return Value::Real(-0.0);
        case 1:
          return Value::Real(std::numeric_limits<double>::quiet_NaN());
        case 2:
          return Value::Real(std::numeric_limits<double>::infinity());
        default:
          return Value::Real(std::numeric_limits<double>::denorm_min());
      }
    case 4:
      return Value::Str(rng->String(rng->Index(12)));
    default:
      return Value::Int(rng->Int(-5, 5));
  }
}

Table RandomTable(Rng* rng, bool keyed) {
  std::vector<Column> columns;
  size_t ncols = keyed ? 2 + rng->Index(3) : rng->Index(4);
  for (size_t c = 0; c < ncols; ++c) {
    DataType type = static_cast<DataType>(rng->Index(4));
    std::string name = "c";
    name += std::to_string(c);
    columns.push_back(Column{std::move(name), type});
  }
  Table table{Schema(std::move(columns))};
  size_t nrows = rng->Index(8);
  if (table.schema().num_columns() == 0) nrows = 0;
  int64_t next_key = 0;
  for (size_t r = 0; r < nrows; ++r) {
    Row row;
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      // Column 0 of keyed tables gets a unique int so SetKey succeeds.
      if (keyed && c == 0) {
        row.push_back(Value::Int(next_key++));
      } else {
        row.push_back(RandomValue(rng));
      }
    }
    table.AddRow(std::move(row));
  }
  if (keyed && table.schema().num_columns() > 0) {
    EXPECT_TRUE(table.SetKey({"c0"}).ok());
  }
  return table;
}

// Bit-exact value equality: NaN == NaN, and -0.0 != 0.0. Plain Value
// equality treats doubles numerically, which is wrong for this test.
bool BitExactEqual(const Value& a, const Value& b) {
  BinaryWriter wa, wb;
  EncodeValue(a, &wa);
  EncodeValue(b, &wb);
  return wa.buffer() == wb.buffer();
}

// A column whose cells mix every kind (ints, doubles, inline and shared
// strings, NULLs) beside typed columns with NULLs.
Table MixedKindTable() {
  Table table{Schema({{"k", DataType::kInt64},
                      {"m", DataType::kInt64},
                      {"x", DataType::kDouble}})};
  Rng rng(7);
  for (int64_t r = 0; r < 40; ++r) {
    Value m;
    switch (rng.Index(5)) {
      case 0:
        m = Value::Int(rng.Int(0, 9));
        break;
      case 1:
        m = Value::Real(static_cast<double>(rng.Int(0, 9)) / 2.0);
        break;
      case 2:
        m = Value::Str("mix");
        break;
      case 3:
        m = Value::Str("a string longer than the inline limit");
        break;
      default:
        m = Value::Null();
    }
    Value x = rng.Chance(0.25) ? Value::Null() : Value::Real(r * 0.5);
    table.AddRow({Value::Int(r), std::move(m), std::move(x)});
  }
  EXPECT_TRUE(table.SetKey({"k"}).ok());
  return table;
}

void ExpectByteIdenticalRoundTrip(const Table& table) {
  std::string encoded = EncodeTableToString(table);

  BinaryReader reader(encoded);
  auto decoded = DecodeTable(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(reader.exhausted());

  // Structure round-trips...
  ASSERT_EQ(decoded->num_rows(), table.num_rows());
  ASSERT_TRUE(decoded->schema() == table.schema());
  EXPECT_EQ(decoded->key(), table.key());
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      EXPECT_TRUE(BitExactEqual(table.rows()[r][c], decoded->rows()[r][c]))
          << "row " << r << " col " << c;
    }
  }
  // ...and the canonical form is a fixed point.
  EXPECT_EQ(EncodeTableToString(*decoded), encoded);
}

TEST(SerializeRoundTripTest, RandomTablesByteIdentical) {
  Rng rng(20260807);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    ExpectByteIdenticalRoundTrip(RandomTable(&rng, trial % 3 == 0));
  }
  SCOPED_TRACE("mixed-kind column");
  ExpectByteIdenticalRoundTrip(MixedKindTable());
}

TEST(SerializeRoundTripTest, SourceDeltasSortedAndByteIdentical) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    ivm::SourceDeltas deltas;
    size_t ntables = 1 + rng.Index(3);
    for (size_t t = 0; t < ntables; ++t) {
      Table inserts = RandomTable(&rng, false);
      // Δ and ∇ share the table's schema in real deltas; the codec does
      // not care, so random schemas exercise more shapes.
      Table deletes = RandomTable(&rng, false);
      std::string name = "t";
      name += std::to_string(t);
      deltas.emplace(std::move(name),
                     ivm::Delta{std::move(inserts), std::move(deletes)});
    }
    BinaryWriter writer;
    EncodeSourceDeltas(deltas, &writer);
    std::string encoded = writer.Take();

    BinaryReader reader(encoded);
    auto decoded = DecodeSourceDeltas(&reader);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(reader.exhausted());
    ASSERT_EQ(decoded->size(), deltas.size());

    BinaryWriter rewriter;
    EncodeSourceDeltas(*decoded, &rewriter);
    EXPECT_EQ(rewriter.buffer(), encoded);
  }
}

TEST(SerializeRoundTripTest, EmptyShapes) {
  // Empty map.
  ivm::SourceDeltas empty;
  BinaryWriter writer;
  EncodeSourceDeltas(empty, &writer);
  BinaryReader reader(writer.buffer());
  auto decoded = DecodeSourceDeltas(&reader);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
  EXPECT_TRUE(reader.exhausted());

  // Zero-column, zero-row table.
  Table none{Schema({})};
  std::string encoded = EncodeTableToString(none);
  BinaryReader table_reader(encoded);
  auto table = DecodeTable(&table_reader);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->num_rows(), 0u);
  EXPECT_EQ(table->schema().num_columns(), 0u);
}

TEST(SerializeRoundTripTest, PatchU64RewritesOnlyItsSlot) {
  BinaryWriter patched;
  patched.PutU32(7);
  const size_t slot = patched.size();
  patched.PutU64(0);
  patched.PutString("tail");
  patched.PatchU64(slot, 0x0102030405060708ull);

  BinaryWriter direct;
  direct.PutU32(7);
  direct.PutU64(0x0102030405060708ull);
  direct.PutString("tail");
  EXPECT_EQ(patched.buffer(), direct.buffer());
}

TEST(SerializeRoundTripTest, PatchU32RewritesOnlyItsSlot) {
  BinaryWriter patched;
  patched.PutU8(7);
  const size_t slot = patched.size();
  patched.PutU32(0);
  patched.PutString("tail");
  patched.PatchU32(slot, 0x01020304u);

  BinaryWriter direct;
  direct.PutU8(7);
  direct.PutU32(0x01020304u);
  direct.PutString("tail");
  EXPECT_EQ(patched.buffer(), direct.buffer());
}

TEST(SerializeDecodeTest, MalformedInputsErrorNotAbort) {
  // Hostile length field: claims 2^32-1 rows in a few bytes.
  BinaryWriter writer;
  writer.PutU32(3);  // schema: 3 columns...
  std::string truncated = writer.Take();
  BinaryReader reader(truncated);
  EXPECT_FALSE(DecodeSchema(&reader).ok());

  BinaryWriter big;
  big.PutU32(0);                    // 0 columns
  big.PutU32(0);                    // 0 key columns
  big.PutU64(0xFFFFFFFFFFFFFFFFull);  // u64-max rows
  BinaryReader big_reader(big.buffer());
  EXPECT_FALSE(DecodeTable(&big_reader).ok());

  // Unknown value tag.
  BinaryWriter tag;
  tag.PutU8(9);
  BinaryReader tag_reader(tag.buffer());
  EXPECT_FALSE(DecodeValue(&tag_reader).ok());
}

ivm::SourceDeltas FixtureDeltas() {
  Table inserts = MakeTable({{"ID", DataType::kInt64},
                             {"Attribute", DataType::kString},
                             {"Value", DataType::kString}},
                            {{I(7), S("Manu"), S("Sony")},
                             {I(8), S("Type"), N()}});
  Table deletes = MakeTable({{"ID", DataType::kInt64},
                             {"Attribute", DataType::kString},
                             {"Value", DataType::kString}},
                            {{I(1), S("Manu"), S("JVC")}});
  ivm::SourceDeltas deltas;
  deltas.emplace("Items", ivm::Delta{std::move(inserts), std::move(deletes)});
  return deltas;
}

// Every single-bit flip anywhere in a WAL file must be *detected*: the
// reader reports the entry torn/corrupt (or, for flips inside the file
// header, refuses the file) — it never returns a successfully decoded
// entry different from the original.
TEST(CorruptionFuzzTest, EveryWalBitFlipCaught) {
  std::string dir = ::testing::TempDir() + "/wal_fuzz";
  std::string path = dir + "/wal.gwal";
  ASSERT_TRUE(EnsureDir(dir).ok());
  {
    auto writer = WalWriter::Open(path, 0);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(
        writer->Append(1, "apply_update", FixtureDeltas()).ok());
  }
  auto pristine = ReadFileToString(path);
  ASSERT_TRUE(pristine.ok());
  auto clean = ReadWal(path);
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->entries.size(), 1u);
  ASSERT_EQ(clean->torn_bytes, 0u);
  const std::string clean_entry_bytes = [&] {
    BinaryWriter w;
    EncodeSourceDeltas(clean->entries[0].deltas, &w);
    return w.Take();
  }();

  for (size_t byte = 0; byte < pristine->size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = *pristine;
      corrupted[byte] = static_cast<char>(
          static_cast<unsigned char>(corrupted[byte]) ^ (1u << bit));
      std::string mutant = dir + "/mutant.gwal";
      ASSERT_TRUE(AtomicWriteFile(mutant, corrupted).ok());
      auto read = ReadWal(mutant);
      if (byte < kWalHeaderSize) {
        EXPECT_FALSE(read.ok())
            << "header flip accepted at byte " << byte << " bit " << bit;
        continue;
      }
      ASSERT_TRUE(read.ok());
      // The flip is inside the (only) entry: the reader must reject it.
      EXPECT_EQ(read->entries.size(), 0u)
          << "flip at byte " << byte << " bit " << bit
          << " yielded a decoded entry";
      EXPECT_GT(read->torn_bytes, 0u);
      EXPECT_FALSE(read->tail_error.empty());
    }
  }
}

TEST(CorruptionFuzzTest, EveryCheckpointBitFlipCaught) {
  std::string dir = ::testing::TempDir() + "/ckpt_fuzz";
  ASSERT_TRUE(EnsureDir(dir).ok());
  std::string path = dir + "/" + CheckpointFileName(3);

  CheckpointContents contents;
  contents.epoch_seq = 3;
  Table items = MakeTable({{"ID", DataType::kInt64},
                           {"Attribute", DataType::kString}},
                          {{I(1), S("Manu")}, {I(2), S("Type")}});
  ASSERT_TRUE(items.SetKey({"ID", "Attribute"}).ok());
  contents.base_tables.emplace(
      "Items", std::make_shared<const Table>(std::move(items)));
  contents.view_tables.emplace(
      "v", std::make_shared<const Table>(
               MakeTable({{"ID", DataType::kInt64}}, {{I(1)}})));
  ASSERT_TRUE(WriteCheckpoint(path, contents).ok());
  auto pristine = ReadFileToString(path);
  ASSERT_TRUE(pristine.ok());
  ASSERT_TRUE(ReadCheckpoint(path).ok());

  for (size_t byte = 0; byte < pristine->size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = *pristine;
      corrupted[byte] = static_cast<char>(
          static_cast<unsigned char>(corrupted[byte]) ^ (1u << bit));
      std::string mutant = dir + "/mutant.gpck";
      ASSERT_TRUE(AtomicWriteFile(mutant, corrupted).ok());
      EXPECT_FALSE(ReadCheckpoint(mutant).ok())
          << "flip at byte " << byte << " bit " << bit << " accepted";
    }
  }
}

}  // namespace
}  // namespace gpivot::storage
