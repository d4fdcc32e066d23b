#include "storage/checkpoint.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "storage/serialize.h"
#include "util/crc32c.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace gpivot::storage {

namespace {

constexpr char kCheckpointPrefix[] = "ckpt-";
constexpr char kCheckpointSuffix[] = ".gpck";
constexpr size_t kSeqDigits = 20;  // enough for any u64

void EncodeTableMap(
    const std::map<std::string, std::shared_ptr<const Table>>& tables,
    BinaryWriter* out) {
  out->PutU32(static_cast<uint32_t>(tables.size()));
  for (const auto& [name, table] : tables) {
    out->PutString(name);
    EncodeTable(*table, out);
  }
}

Result<std::map<std::string, std::shared_ptr<const Table>>> DecodeTableMap(
    BinaryReader* in, const char* what) {
  GPIVOT_ASSIGN_OR_RETURN(uint32_t ntables, in->GetU32());
  std::map<std::string, std::shared_ptr<const Table>> tables;
  for (uint32_t i = 0; i < ntables; ++i) {
    GPIVOT_ASSIGN_OR_RETURN(std::string name, in->GetString());
    GPIVOT_ASSIGN_OR_RETURN(Table table, DecodeTable(in));
    if (!tables
             .emplace(std::move(name),
                      std::make_shared<const Table>(std::move(table)))
             .second) {
      return Status::InvalidArgument(
          StrCat("checkpoint: duplicate ", what, " table name"));
    }
  }
  return tables;
}

}  // namespace

Status WriteCheckpoint(const std::string& path,
                       const CheckpointContents& contents,
                       obs::MetricsRegistry* metrics) {
  // The payload is encoded in place after the header; its length is
  // patched in once known.
  BinaryWriter file;
  file.PutU32(kCheckpointMagic);
  file.PutU32(kCheckpointVersion);
  const size_t length_at = file.size();
  file.PutU64(0);
  const size_t payload_at = file.size();
  file.PutU64(contents.epoch_seq);
  EncodeTableMap(contents.base_tables, &file);
  EncodeTableMap(contents.view_tables, &file);
  const std::string_view payload =
      std::string_view(file.buffer()).substr(payload_at);
  file.PatchU64(length_at, payload.size());
  file.PutU32(Crc32c(payload));
  const std::string& bytes = file.buffer();

  GPIVOT_RETURN_NOT_OK(AtomicWriteFile(path, bytes));
  if (metrics != nullptr && metrics->enabled()) {
    metrics->AddCounter("storage.checkpoint.writes");
    metrics->AddCounter("storage.checkpoint.bytes", bytes.size());
  }
  return Status::OK();
}

Result<CheckpointContents> ReadCheckpoint(const std::string& path) {
  GPIVOT_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  BinaryReader reader(bytes);
  auto bad = [&](std::string_view why) {
    return Status::InvalidArgument(
        StrCat("checkpoint '", path, "': ", why));
  };
  Result<uint32_t> magic = reader.GetU32();
  if (!magic.ok() || *magic != kCheckpointMagic) return bad("bad file magic");
  Result<uint32_t> version = reader.GetU32();
  if (!version.ok() || *version != kCheckpointVersion) {
    return bad("unsupported version");
  }
  Result<uint64_t> payload_len = reader.GetU64();
  if (!payload_len.ok() || *payload_len > reader.remaining() ||
      reader.remaining() - *payload_len < 4) {
    return bad("truncated payload");
  }
  std::string_view payload =
      std::string_view(bytes).substr(reader.position(),
                                     static_cast<size_t>(*payload_len));
  BinaryReader trailer(
      std::string_view(bytes).substr(reader.position() + payload.size()));
  Result<uint32_t> crc = trailer.GetU32();
  if (!crc.ok() || !trailer.exhausted()) return bad("malformed trailer");
  if (Crc32c(payload) != *crc) return bad("checksum mismatch");

  BinaryReader body(payload);
  CheckpointContents contents;
  GPIVOT_ASSIGN_OR_RETURN(contents.epoch_seq, body.GetU64());
  GPIVOT_ASSIGN_OR_RETURN(contents.base_tables, DecodeTableMap(&body, "base"));
  GPIVOT_ASSIGN_OR_RETURN(contents.view_tables, DecodeTableMap(&body, "view"));
  if (!body.exhausted()) return bad("trailing bytes inside payload");
  return contents;
}

std::string CheckpointFileName(uint64_t epoch_seq) {
  std::string digits = std::to_string(epoch_seq);
  std::string padded(kSeqDigits - std::min(digits.size(), kSeqDigits), '0');
  padded += digits;
  return StrCat(kCheckpointPrefix, padded, kCheckpointSuffix);
}

Result<std::vector<std::string>> FindCheckpoints(const std::string& dir) {
  GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDirFiles(dir));
  std::vector<std::string> checkpoints;
  for (const std::string& name : names) {
    if (name.size() > sizeof(kCheckpointPrefix) - 1 +
                          sizeof(kCheckpointSuffix) - 1 &&
        name.rfind(kCheckpointPrefix, 0) == 0 &&
        name.compare(name.size() - (sizeof(kCheckpointSuffix) - 1),
                     sizeof(kCheckpointSuffix) - 1, kCheckpointSuffix) == 0) {
      checkpoints.push_back(name);
    }
  }
  // Zero-padded seq in the name: lexical descending == newest first.
  std::sort(checkpoints.rbegin(), checkpoints.rend());
  return checkpoints;
}

}  // namespace gpivot::storage
