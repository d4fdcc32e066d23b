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

constexpr std::string_view kCheckpointPrefix = "ckpt-";
constexpr std::string_view kCheckpointSuffix = ".gpck";
constexpr size_t kSeqDigits = 20;  // enough for any u64

// The writer streams the file through one reused buffer of about this size:
// a constant, not a knob; per-chunk calls are noise, and no part of the peak.
constexpr size_t kChunkBytes = size_t{1} << 20;
constexpr size_t kHeaderBytes = 16;  // magic, version, payload_len at 8

Result<std::map<std::string, Table>> DecodeTableMap(BinaryReader* in,
                                                    const char* what) {
  GPIVOT_ASSIGN_OR_RETURN(uint32_t ntables, in->GetU32());
  std::map<std::string, Table> tables;
  for (uint32_t i = 0; i < ntables; ++i) {
    GPIVOT_ASSIGN_OR_RETURN(std::string name, in->GetString());
    GPIVOT_ASSIGN_OR_RETURN(Table table, DecodeTable(in));
    if (!tables.emplace(std::move(name), std::move(table)).second) {
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
  GPIVOT_ASSIGN_OR_RETURN(FdFile file, FdFile::CreateTruncated(path + ".tmp"));
  BinaryWriter chunk;
  uint32_t crc = 0;
  size_t crc_from = kHeaderBytes;  // the header is outside the checksum
  uint64_t written = 0;
  auto fold = [&] {
    crc = Crc32c(std::string_view(chunk.buffer()).substr(crc_from), crc);
    crc_from = chunk.size();
  };
  auto write = [&]() -> Status {
    GPIVOT_RETURN_NOT_OK(file.WriteFully(chunk.buffer()));
    written += chunk.size();
    chunk.Clear();
    crc_from = 0;
    return Status::OK();
  };
  chunk.PutU32(kCheckpointMagic);
  chunk.PutU32(kCheckpointVersion);
  chunk.PutU64(0);  // payload_len, patched in once known
  chunk.PutU64(contents.epoch_seq);
  for (const auto* tables : {&contents.base_tables, &contents.view_tables}) {
    chunk.PutU32(static_cast<uint32_t>(tables->size()));
    for (const auto& [name, table] : *tables) {
      chunk.PutString(name);
      EncodeTableHead(*table, &chunk);
      for (const Row& row : table->rows()) {
        EncodeRow(row, &chunk);
        if (chunk.size() >= kChunkBytes) {
          fold();
          GPIVOT_RETURN_NOT_OK(write());
        }
      }
    }
  }
  // One chunk: length patched in memory, one WriteFully (the fault sites
  // the kill sweeps count on). More chunks: the length is patched on disk.
  const uint64_t payload_len = written + chunk.size() - kHeaderBytes;
  const bool one_chunk = written == 0;
  if (one_chunk) chunk.PatchU64(8, payload_len);
  fold();
  chunk.PutU32(crc);
  GPIVOT_RETURN_NOT_OK(write());
  if (!one_chunk) {
    BinaryWriter length;
    length.PutU64(payload_len);
    GPIVOT_RETURN_NOT_OK(file.WriteAt(8, length.buffer()));
  }
  GPIVOT_RETURN_NOT_OK(CommitAtomicWrite(std::move(file), path));
  if (metrics != nullptr && metrics->enabled()) {
    metrics->AddCounter("storage.checkpoint.writes");
    metrics->AddCounter("storage.checkpoint.bytes", written);
  }
  return Status::OK();
}

Result<LoadedCheckpoint> ReadCheckpoint(const std::string& path) {
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
  LoadedCheckpoint contents;
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
    if (name.size() > kCheckpointPrefix.size() + kCheckpointSuffix.size() &&
        name.starts_with(kCheckpointPrefix) &&
        name.ends_with(kCheckpointSuffix)) {
      checkpoints.push_back(name);
    }
  }
  // Zero-padded seq in the name: lexical descending == newest first.
  std::sort(checkpoints.rbegin(), checkpoints.rend());
  return checkpoints;
}

}  // namespace gpivot::storage
