#include "storage/wal.h"

#include <string_view>
#include <utility>

#include "storage/serialize.h"
#include "util/crc32c.h"
#include "util/string_util.h"

namespace gpivot::storage {

namespace {

// One buffer: the payload is encoded after the frame header, whose length
// and CRC fields are patched in once it is complete.
std::string EncodeFrame(uint64_t seq, const std::string& entry,
                        const ivm::SourceDeltas& deltas) {
  BinaryWriter frame;
  frame.PutU32(kWalEntryMagic);
  frame.PutU32(0);  // payload_len
  frame.PutU32(0);  // crc
  frame.PutU64(seq);
  frame.PutString(entry);
  EncodeSourceDeltas(deltas, &frame);
  const std::string_view payload =
      std::string_view(frame.buffer()).substr(kWalFrameHeaderSize);
  frame.PatchU32(4, static_cast<uint32_t>(payload.size()));
  frame.PatchU32(8, Crc32c(payload));
  return frame.Take();
}

std::string FileHeader() {
  BinaryWriter header;
  header.PutU32(kWalFileMagic);
  header.PutU32(kWalVersion);
  return header.Take();
}

}  // namespace

uint64_t WalEntry::TotalRows() const { return storage::TotalRows(deltas); }

uint64_t TotalRows(const ivm::SourceDeltas& deltas) {
  uint64_t rows = 0;
  for (const auto& [name, delta] : deltas) {
    rows += delta.inserts.num_rows() + delta.deletes.num_rows();
  }
  return rows;
}

Result<WalContents> ReadWal(const std::string& path) {
  GPIVOT_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  BinaryReader header(bytes);
  {
    Result<uint32_t> magic = header.GetU32();
    if (!magic.ok() || *magic != kWalFileMagic) {
      return Status::InvalidArgument(
          StrCat("wal '", path, "': bad file magic"));
    }
    Result<uint32_t> version = header.GetU32();
    if (!version.ok() || *version != kWalVersion) {
      return Status::InvalidArgument(
          StrCat("wal '", path, "': unsupported version"));
    }
  }
  WalContents contents;
  contents.valid_bytes = kWalHeaderSize;
  size_t pos = kWalHeaderSize;
  while (pos < bytes.size()) {
    std::string_view rest = std::string_view(bytes).substr(pos);
    BinaryReader frame(rest);
    auto reject = [&](std::string why) {
      contents.torn_bytes = bytes.size() - pos;
      contents.tail_error = std::move(why);
    };
    if (rest.size() < kWalFrameHeaderSize) {
      reject("incomplete frame header at tail");
      break;
    }
    uint32_t magic = frame.GetU32().value();
    uint32_t payload_len = frame.GetU32().value();
    uint32_t crc = frame.GetU32().value();
    if (magic != kWalEntryMagic) {
      reject(StrCat("bad entry magic at offset ", pos));
      break;
    }
    if (rest.size() - kWalFrameHeaderSize < payload_len) {
      reject(StrCat("truncated payload at offset ", pos, " (", payload_len,
                    " claimed, ", rest.size() - kWalFrameHeaderSize,
                    " present)"));
      break;
    }
    std::string_view payload = rest.substr(kWalFrameHeaderSize, payload_len);
    if (Crc32c(payload) != crc) {
      reject(StrCat("checksum mismatch at offset ", pos));
      break;
    }
    BinaryReader body(payload);
    WalEntry entry;
    Result<uint64_t> seq = body.GetU64();
    Result<std::string> tag = seq.ok() ? body.GetString()
                                       : Result<std::string>(seq.status());
    Result<ivm::SourceDeltas> deltas =
        tag.ok() ? DecodeSourceDeltas(&body)
                 : Result<ivm::SourceDeltas>(tag.status());
    if (!deltas.ok() || !body.exhausted()) {
      // The checksum matched but the payload does not decode: a writer bug
      // or version skew, not a torn write. Still treated as end-of-log so
      // recovery can proceed with the valid prefix.
      reject(StrCat("undecodable payload at offset ", pos, ": ",
                    deltas.ok() ? "trailing bytes inside payload"
                                : deltas.status().ToString()));
      break;
    }
    entry.seq = *seq;
    entry.entry = std::move(*tag);
    entry.deltas = std::move(*deltas);
    contents.entries.push_back(std::move(entry));
    pos += kWalFrameHeaderSize + payload_len;
    contents.valid_bytes = pos;
  }
  return contents;
}

Result<WalWriter> WalWriter::Open(const std::string& path,
                                  uint64_t valid_bytes) {
  if (!FileExists(path) || valid_bytes < kWalHeaderSize) {
    GPIVOT_ASSIGN_OR_RETURN(FdFile file, FdFile::CreateTruncated(path));
    WalWriter writer(std::move(file));
    GPIVOT_RETURN_NOT_OK(writer.file_.WriteFully(FileHeader()));
    GPIVOT_RETURN_NOT_OK(writer.file_.Fsync());
    writer.durable_offset_ = writer.file_.offset();
    return writer;
  }
  GPIVOT_ASSIGN_OR_RETURN(FdFile file, FdFile::OpenForAppend(path));
  if (file.offset() > valid_bytes) {
    GPIVOT_RETURN_NOT_OK(file.Truncate(valid_bytes));
    GPIVOT_RETURN_NOT_OK(file.Fsync());
  }
  return WalWriter(std::move(file));
}

Status WalWriter::Append(uint64_t seq, const std::string& entry,
                         const ivm::SourceDeltas& deltas,
                         obs::MetricsRegistry* metrics) {
  if (last_append_torn_) {
    // A previous append failed mid-frame; clear its torn bytes before this
    // entry lands, or the reader would stop at the garbage.
    GPIVOT_RETURN_NOT_OK(file_.Truncate(durable_offset_));
    last_append_torn_ = false;
  }
  std::string frame = EncodeFrame(seq, entry, deltas);
  last_append_torn_ = true;
  GPIVOT_RETURN_NOT_OK(file_.WriteFully(frame));
  GPIVOT_RETURN_NOT_OK(file_.Fsync());
  last_append_torn_ = false;
  durable_offset_ = file_.offset();
  if (metrics != nullptr && metrics->enabled()) {
    metrics->AddCounter("storage.wal.appends");
    metrics->AddCounter("storage.wal.append_bytes", frame.size());
  }
  return Status::OK();
}

Status WalWriter::TruncateTo(uint64_t offset_before) {
  GPIVOT_RETURN_NOT_OK(file_.Truncate(offset_before));
  GPIVOT_RETURN_NOT_OK(file_.Fsync());
  durable_offset_ = offset_before;
  last_append_torn_ = false;
  return Status::OK();
}

Status WalWriter::Reset() { return TruncateTo(kWalHeaderSize); }

}  // namespace gpivot::storage
