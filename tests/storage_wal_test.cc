// Unit behaviors of the WAL and checkpoint files: append/scan round-trip,
// every torn-tail shape truncating instead of failing, failed-append
// self-repair, Reset/TruncateTo, atomic checkpoint writes, newest-first
// checkpoint discovery with corrupt files passed over, and the walinspect
// report on clean and damaged artifacts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ivm/delta.h"
#include "obs/json_util.h"
#include "storage/checkpoint.h"
#include "storage/inspect.h"
#include "storage/serialize.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/crc32c.h"
#include "util/fault_injection.h"
#include "util/file_io.h"

namespace gpivot::storage {
namespace {

using gpivot::testing::I;
using gpivot::testing::MakeTable;
using gpivot::testing::S;

ivm::SourceDeltas DeltasFor(int64_t id) {
  Table inserts = MakeTable({{"ID", DataType::kInt64},
                             {"Attribute", DataType::kString}},
                            {{I(id), S("Manu")}});
  Table deletes =
      MakeTable({{"ID", DataType::kInt64}, {"Attribute", DataType::kString}},
                {});
  ivm::SourceDeltas deltas;
  deltas.emplace("Items", ivm::Delta{std::move(inserts), std::move(deletes)});
  return deltas;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/wal_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(EnsureDir(dir_).ok());
    path_ = dir_ + "/wal.gwal";
    ASSERT_TRUE(RemoveFileIfExists(path_).ok());
  }

  std::string dir_;
  std::string path_;
};

TEST_F(WalTest, AppendScanRoundTrip) {
  {
    auto writer = WalWriter::Open(path_, 0);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (uint64_t seq = 1; seq <= 3; ++seq) {
      ASSERT_TRUE(writer
                      ->Append(seq,
                               seq == 2 ? "batched_apply_update"
                                        : "apply_update",
                               DeltasFor(static_cast<int64_t>(seq)))
                      .ok());
    }
  }
  auto wal = ReadWal(path_);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_EQ(wal->entries.size(), 3u);
  EXPECT_EQ(wal->torn_bytes, 0u);
  EXPECT_TRUE(wal->tail_error.empty());
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    const WalEntry& entry = wal->entries[seq - 1];
    EXPECT_EQ(entry.seq, seq);
    EXPECT_EQ(entry.entry,
              seq == 2 ? "batched_apply_update" : "apply_update");
    EXPECT_EQ(entry.TotalRows(), 1u);
    ASSERT_EQ(entry.deltas.count("Items"), 1u);
    EXPECT_EQ(entry.deltas.at("Items").inserts.rows()[0][0],
              I(static_cast<int64_t>(seq)));
  }
}

TEST_F(WalTest, MissingFileIsNotFound) {
  auto wal = ReadWal(path_);
  ASSERT_FALSE(wal.ok());
  EXPECT_TRUE(wal.status().IsNotFound());
}

TEST_F(WalTest, TornTailShapesTruncateNotFail) {
  {
    auto writer = WalWriter::Open(path_, 0);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "apply_update", DeltasFor(1)).ok());
    ASSERT_TRUE(writer->Append(2, "apply_update", DeltasFor(2)).ok());
  }
  auto pristine = ReadFileToString(path_);
  ASSERT_TRUE(pristine.ok());
  auto clean = ReadWal(path_);
  ASSERT_TRUE(clean.ok());
  uint64_t first_entry_end =
      kWalHeaderSize +
      (clean->valid_bytes - kWalHeaderSize) / 2;  // entries are equal-sized
  // Every possible truncation point inside entry 2 leaves entry 1 intact.
  for (uint64_t cut = first_entry_end; cut < pristine->size(); ++cut) {
    ASSERT_TRUE(
        AtomicWriteFile(path_, std::string_view(*pristine).substr(0, cut))
            .ok());
    auto wal = ReadWal(path_);
    ASSERT_TRUE(wal.ok()) << "cut=" << cut;
    EXPECT_EQ(wal->entries.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(wal->valid_bytes, first_entry_end);
    EXPECT_EQ(wal->torn_bytes, cut - first_entry_end);
    if (cut > first_entry_end) {
      EXPECT_FALSE(wal->tail_error.empty());
    }
    // Open() truncates the tail and appends cleanly after it.
    auto writer = WalWriter::Open(path_, wal->valid_bytes);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(2, "apply_update", DeltasFor(2)).ok());
    auto repaired = ReadWal(path_);
    ASSERT_TRUE(repaired.ok());
    EXPECT_EQ(repaired->entries.size(), 2u);
    EXPECT_EQ(repaired->torn_bytes, 0u);
  }
}

TEST_F(WalTest, TornHeaderIsInvalidArgument) {
  ASSERT_TRUE(AtomicWriteFile(path_, "GW").ok());
  auto wal = ReadWal(path_);
  ASSERT_FALSE(wal.ok());
  EXPECT_TRUE(wal.status().IsInvalidArgument());
  // Open(path, 0) rebuilds the file from scratch.
  auto writer = WalWriter::Open(path_, 0);
  ASSERT_TRUE(writer.ok());
  auto rebuilt = ReadWal(path_);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->entries.size(), 0u);
}

TEST_F(WalTest, FailedAppendSelfRepairsOnRetry) {
  auto writer = WalWriter::Open(path_, 0);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(1, "apply_update", DeltasFor(1)).ok());
  uint64_t durable = writer->offset();

  // Make the append tear mid-write: real partial bytes land on disk.
  FaultInjector& injector = FaultInjector::Global();
  injector.Arm(2);  // poke 1 = "file.write", poke 2 = "file.write.torn"
  Status st = writer->Append(2, "apply_update", DeltasFor(2));
  EXPECT_TRUE(injector.fired());
  injector.Disarm();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(writer->offset(), durable);

  // The file currently carries torn garbage past `durable`...
  auto torn = ReadWal(path_);
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn->entries.size(), 1u);
  EXPECT_GT(torn->torn_bytes, 0u);

  // ...which the next append clears before writing.
  ASSERT_TRUE(writer->Append(2, "apply_update", DeltasFor(2)).ok());
  auto repaired = ReadWal(path_);
  ASSERT_TRUE(repaired.ok());
  ASSERT_EQ(repaired->entries.size(), 2u);
  EXPECT_EQ(repaired->torn_bytes, 0u);
  EXPECT_EQ(repaired->entries[1].seq, 2u);
}

TEST_F(WalTest, TruncateToDropsLastEntryAndResetEmpties) {
  auto writer = WalWriter::Open(path_, 0);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(1, "apply_update", DeltasFor(1)).ok());
  uint64_t before_second = writer->offset();
  ASSERT_TRUE(writer->Append(2, "apply_update", DeltasFor(2)).ok());

  ASSERT_TRUE(writer->TruncateTo(before_second).ok());
  auto wal = ReadWal(path_);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(wal->entries.size(), 1u);
  EXPECT_EQ(wal->entries[0].seq, 1u);
  EXPECT_EQ(wal->torn_bytes, 0u);

  ASSERT_TRUE(writer->Reset().ok());
  auto empty = ReadWal(path_);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->entries.size(), 0u);
  EXPECT_EQ(empty->valid_bytes, kWalHeaderSize);
}

CheckpointContents FixtureCheckpoint(uint64_t seq) {
  CheckpointContents contents;
  contents.epoch_seq = seq;
  Table items = MakeTable({{"ID", DataType::kInt64},
                           {"Attribute", DataType::kString}},
                          {{I(1), S("Manu")}, {I(seq), S("Type")}});
  EXPECT_TRUE(items.SetKey({"ID", "Attribute"}).ok());
  contents.base_tables.emplace(
      "Items", std::make_shared<const Table>(std::move(items)));
  contents.view_tables.emplace(
      "v", std::make_shared<const Table>(
               MakeTable({{"ID", DataType::kInt64}}, {{I(seq)}})));
  return contents;
}

TEST_F(WalTest, CheckpointRoundTripAndDiscovery) {
  ASSERT_TRUE(
      WriteCheckpoint(dir_ + "/" + CheckpointFileName(2), FixtureCheckpoint(2))
          .ok());
  ASSERT_TRUE(
      WriteCheckpoint(dir_ + "/" + CheckpointFileName(10),
                      FixtureCheckpoint(10))
          .ok());
  // A corrupt newer file must be discoverable but unreadable.
  ASSERT_TRUE(
      AtomicWriteFile(dir_ + "/" + CheckpointFileName(11), "GPCKgarbage")
          .ok());

  auto names = FindCheckpoints(dir_);
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names->size(), 3u);
  EXPECT_EQ((*names)[0], CheckpointFileName(11));  // newest first
  EXPECT_EQ((*names)[1], CheckpointFileName(10));
  EXPECT_EQ((*names)[2], CheckpointFileName(2));

  EXPECT_FALSE(ReadCheckpoint(dir_ + "/" + (*names)[0]).ok());
  auto loaded = ReadCheckpoint(dir_ + "/" + (*names)[1]);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch_seq, 10u);
  ASSERT_EQ(loaded->base_tables.count("Items"), 1u);
  EXPECT_EQ(loaded->base_tables.at("Items").key(),
            (std::vector<std::string>{"ID", "Attribute"}));
  EXPECT_EQ(loaded->view_tables.at("v").rows()[0][0], I(10));
}

TEST_F(WalTest, CheckpointWriteIsAtomicUnderFaults) {
  const std::string path = dir_ + "/" + CheckpointFileName(5);
  ASSERT_TRUE(WriteCheckpoint(path, FixtureCheckpoint(5)).ok());

  // Sweep every fault point in the atomic-write protocol; after each
  // failure the original file must still read back intact.
  FaultInjector& injector = FaultInjector::Global();
  size_t points = 0;
  for (size_t n = 1;; ++n) {
    injector.Arm(n);
    Status st = WriteCheckpoint(path, FixtureCheckpoint(6));
    bool fired = injector.fired();
    injector.Disarm();
    if (st.ok()) {
      EXPECT_FALSE(fired);
      break;
    }
    ASSERT_TRUE(fired) << "non-injected failure: " << st.ToString();
    points = n;
    // Atomicity: the real name always holds a complete checkpoint — the
    // old one before the rename point, the new one after it (a dirsync
    // fault hits once the rename itself already landed). Never garbage.
    auto survived = ReadCheckpoint(path);
    ASSERT_TRUE(survived.ok())
        << "fault at point " << n << " destroyed the checkpoint: "
        << survived.status().ToString();
    EXPECT_TRUE(survived->epoch_seq == 5u || survived->epoch_seq == 6u);
  }
  EXPECT_GE(points, 3u);  // write, fsync, rename at minimum
  auto replaced = ReadCheckpoint(path);
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced->epoch_seq, 6u);
}

// A checkpoint large enough to stream through several 1 MiB chunks: about
// 4.4 MB over two base tables and a view, every value kind included.
CheckpointContents MultiChunkCheckpoint(uint64_t seq) {
  CheckpointContents contents;
  contents.epoch_seq = seq;
  auto table = [](int64_t rows, int64_t salt) {
    Table t{Schema({{"k", DataType::kInt64},
                    {"x", DataType::kDouble},
                    {"s", DataType::kString},
                    {"n", DataType::kInt64}})};
    for (int64_t r = 0; r < rows; ++r) {
      t.AddRow({I(r), Value::Real(0.25 * static_cast<double>(r + salt)),
                Value::Str("s" + std::to_string((r * salt) % 997)),
                r % 7 == 0 ? Value::Null() : I(r ^ salt)});
    }
    EXPECT_TRUE(t.SetKey({"k"}).ok());
    return std::make_shared<const Table>(std::move(t));
  };
  contents.base_tables.emplace("A", table(45000, 3));
  contents.base_tables.emplace("B", table(40000, 5));
  contents.view_tables.emplace("v", table(15000, 7));
  return contents;
}

// The file the one-buffer encoder wrote before checkpoints streamed: the
// streamed writer must produce exactly these bytes.
std::string ReferenceCheckpointBytes(const CheckpointContents& contents) {
  BinaryWriter file;
  file.PutU32(kCheckpointMagic);
  file.PutU32(kCheckpointVersion);
  file.PutU64(0);
  file.PutU64(contents.epoch_seq);
  for (const auto* tables : {&contents.base_tables, &contents.view_tables}) {
    file.PutU32(static_cast<uint32_t>(tables->size()));
    for (const auto& [name, table] : *tables) {
      file.PutString(name);
      EncodeTable(*table, &file);
    }
  }
  const std::string_view payload = std::string_view(file.buffer()).substr(16);
  file.PatchU64(8, payload.size());
  file.PutU32(Crc32cPortable(payload.data(), payload.size()));
  return file.Take();
}

// Newest checkpoint in `dir` that reads back, as recovery picks it.
uint64_t NewestValidSeq(const std::string& dir) {
  auto names = FindCheckpoints(dir);
  EXPECT_TRUE(names.ok());
  for (const std::string& name : *names) {
    auto loaded = ReadCheckpoint(dir + "/" + name);
    if (loaded.ok()) return loaded->epoch_seq;
  }
  return 0;
}

TEST_F(WalTest, MultiChunkCheckpointIsTheOneBufferEncoding) {
  const CheckpointContents contents = MultiChunkCheckpoint(9);
  const std::string path = dir_ + "/" + CheckpointFileName(9);
  ASSERT_TRUE(WriteCheckpoint(path, contents).ok());
  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  ASSERT_GE(bytes->size(), 3u << 20) << "fixture must span 3+ chunks";
  EXPECT_TRUE(*bytes == ReferenceCheckpointBytes(contents));

  auto loaded = ReadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->epoch_seq, 9u);
  EXPECT_EQ(loaded->base_tables.at("A").num_rows(), 45000u);
  EXPECT_EQ(loaded->view_tables.at("v").rows()[14999][2],
            Value::Str("s" + std::to_string((14999 * 7) % 997)));
}

TEST_F(WalTest, MultiChunkCheckpointBitFlipsAreCaught) {
  const std::string path = dir_ + "/" + CheckpointFileName(9);
  ASSERT_TRUE(WriteCheckpoint(path, MultiChunkCheckpoint(9)).ok());
  auto pristine = ReadFileToString(path);
  ASSERT_TRUE(pristine.ok());
  const size_t chunk = size_t{1} << 20;
  // First chunk (past the header), a middle chunk, the last chunk and the
  // CRC trailer itself.
  for (size_t byte : {size_t{100}, 2 * chunk + 12345, pristine->size() - 40,
                      pristine->size() - 1}) {
    std::string corrupted = *pristine;
    corrupted[byte] = static_cast<char>(corrupted[byte] ^ 0x10);
    const std::string mutant = dir_ + "/mutant.gpck";
    ASSERT_TRUE(AtomicWriteFile(mutant, corrupted).ok());
    auto read = ReadCheckpoint(mutant);
    ASSERT_FALSE(read.ok()) << "flip at byte " << byte << " accepted";
    EXPECT_TRUE(read.status().IsInvalidArgument()) << read.status().ToString();
  }
}

TEST_F(WalTest, MultiChunkCheckpointWriteIsAtomicUnderFaults) {
  ASSERT_TRUE(
      WriteCheckpoint(dir_ + "/" + CheckpointFileName(5), FixtureCheckpoint(5))
          .ok());
  const std::string path = dir_ + "/" + CheckpointFileName(6);
  ASSERT_TRUE(RemoveFileIfExists(path).ok());  // left by an earlier run
  const CheckpointContents contents = MultiChunkCheckpoint(6);
  FaultInjector& injector = FaultInjector::Global();
  size_t points = 0;
  for (size_t n = 1;; ++n) {
    injector.Arm(n);
    Status st = WriteCheckpoint(path, contents);
    const std::string site = injector.fired_site();
    injector.Disarm();
    if (st.ok()) {
      EXPECT_TRUE(site.empty());
      break;
    }
    ASSERT_FALSE(site.empty()) << "non-injected failure: " << st.ToString();
    points = n;
    if (site == "file.dirsync") {
      // The rename landed before the directory fsync failed: the new name
      // holds the complete new checkpoint.
      EXPECT_EQ(NewestValidSeq(dir_), 6u) << "fault at point " << n;
    } else {
      EXPECT_FALSE(FileExists(path))
          << "fault at point " << n << " (" << site << ") left " << path;
      EXPECT_EQ(NewestValidSeq(dir_), 5u) << "fault at point " << n;
    }
    ASSERT_TRUE(RemoveFileIfExists(path).ok());
  }
  // Two sites per chunk write (3+ chunks), the length patch, fsync, rename,
  // dirsync.
  EXPECT_GE(points, 2 * 3 + 4u);
  EXPECT_EQ(NewestValidSeq(dir_), 6u);
}

// One frame is [magic][payload_len][crc][payload]; the writer patches the
// length and CRC into the buffer it encoded the payload in.
TEST_F(WalTest, FrameBytesFollowTheLayout) {
  {
    auto writer = WalWriter::Open(path_, 0);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append(4, "apply_update", DeltasFor(4)).ok());
  }
  BinaryWriter payload;
  payload.PutU64(4);
  payload.PutString("apply_update");
  EncodeSourceDeltas(DeltasFor(4), &payload);
  BinaryWriter want;
  want.PutU32(kWalFileMagic);
  want.PutU32(kWalVersion);
  want.PutU32(kWalEntryMagic);
  want.PutU32(static_cast<uint32_t>(payload.size()));
  want.PutU32(Crc32cPortable(payload.buffer().data(), payload.size()));
  auto bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, want.buffer() + payload.buffer());
}

TEST_F(WalTest, InspectReportsCleanAndDamaged) {
  {
    auto writer = WalWriter::Open(path_, 0);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "apply_update", DeltasFor(1)).ok());
  }
  ASSERT_TRUE(
      WriteCheckpoint(dir_ + "/" + CheckpointFileName(1), FixtureCheckpoint(1))
          .ok());
  auto clean = Inspect(dir_);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(clean->clean) << clean->text;
  EXPECT_NE(clean->text.find("entry seq=1"), std::string::npos);
  EXPECT_NE(clean->text.find("epoch_seq=1"), std::string::npos);

  // Tear the WAL tail: inspect flags the directory.
  auto bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      AtomicWriteFile(path_,
                      std::string_view(*bytes).substr(0, bytes->size() - 3))
          .ok());
  auto damaged = Inspect(dir_);
  ASSERT_TRUE(damaged.ok());
  EXPECT_FALSE(damaged->clean);
  EXPECT_NE(damaged->text.find("TORN"), std::string::npos);

  auto missing = Inspect(dir_ + "/nope");
  EXPECT_FALSE(missing.ok());
}

TEST_F(WalTest, InspectJsonMirrorsTheTextReport) {
  {
    auto writer = WalWriter::Open(path_, 0);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(1, "apply_update", DeltasFor(1)).ok());
    ASSERT_TRUE(writer->Append(2, "apply_update", DeltasFor(2)).ok());
  }
  ASSERT_TRUE(
      WriteCheckpoint(dir_ + "/" + CheckpointFileName(2), FixtureCheckpoint(2))
          .ok());

  auto clean = Inspect(dir_);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_TRUE(obs::IsValidJson(clean->json)) << clean->json;
  auto parsed = obs::ParseJson(clean->json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->Find("clean")->bool_value);
  const obs::JsonValue* files = parsed->Find("files");
  ASSERT_TRUE(files != nullptr && files->is_array());
  ASSERT_EQ(files->array.size(), 2u);  // one checkpoint + one WAL

  const obs::JsonValue* wal_file = nullptr;
  const obs::JsonValue* checkpoint_file = nullptr;
  for (const obs::JsonValue& file : files->array) {
    const std::string& kind = file.Find("kind")->string_value;
    if (kind == "wal") wal_file = &file;
    if (kind == "checkpoint") checkpoint_file = &file;
  }
  ASSERT_NE(wal_file, nullptr) << clean->json;
  EXPECT_TRUE(wal_file->Find("clean")->bool_value);
  EXPECT_EQ(wal_file->Find("frames")->number_value, 2.0);
  EXPECT_EQ(wal_file->Find("torn_bytes")->number_value, 0.0);
  // A clean WAL's durable offset is exactly its valid byte count.
  EXPECT_EQ(wal_file->Find("durable_offset")->number_value,
            wal_file->Find("valid_bytes")->number_value);
  const obs::JsonValue* entries = wal_file->Find("entries");
  ASSERT_TRUE(entries != nullptr && entries->is_array());
  ASSERT_EQ(entries->array.size(), 2u);
  EXPECT_EQ(entries->array[0].Find("seq")->number_value, 1.0);
  EXPECT_EQ(entries->array[0].Find("entry")->string_value, "apply_update");
  EXPECT_EQ(entries->array[1].Find("rows")->number_value, 1.0);
  ASSERT_NE(checkpoint_file, nullptr) << clean->json;
  EXPECT_EQ(checkpoint_file->Find("epoch_seq")->number_value, 2.0);
  ASSERT_TRUE(checkpoint_file->Find("tables")->is_array());

  // Tear the tail: the JSON flips to unclean with the torn diagnosis.
  auto bytes = ReadFileToString(path_);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      AtomicWriteFile(path_,
                      std::string_view(*bytes).substr(0, bytes->size() - 3))
          .ok());
  auto damaged = Inspect(path_);  // single-file form carries JSON too
  ASSERT_TRUE(damaged.ok());
  ASSERT_TRUE(obs::IsValidJson(damaged->json)) << damaged->json;
  auto damaged_parsed = obs::ParseJson(damaged->json);
  ASSERT_TRUE(damaged_parsed.has_value());
  EXPECT_FALSE(damaged_parsed->Find("clean")->bool_value);
  const obs::JsonValue& torn_wal = damaged_parsed->Find("files")->array[0];
  EXPECT_FALSE(torn_wal.Find("clean")->bool_value);
  EXPECT_EQ(torn_wal.Find("frames")->number_value, 1.0);
  EXPECT_GT(torn_wal.Find("torn_bytes")->number_value, 0.0);
  EXPECT_FALSE(torn_wal.Find("tail_error")->string_value.empty());
  // The surviving frame is still enumerated; the durable offset stops
  // before the torn bytes.
  EXPECT_EQ(torn_wal.Find("entries")->array.size(), 1u);
  EXPECT_EQ(torn_wal.Find("durable_offset")->number_value,
            torn_wal.Find("valid_bytes")->number_value);
}

}  // namespace
}  // namespace gpivot::storage
