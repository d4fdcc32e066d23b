#ifndef GPIVOT_STORAGE_WAL_H_
#define GPIVOT_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ivm/delta.h"
#include "obs/metrics.h"
#include "util/file_io.h"
#include "util/result.h"

namespace gpivot::storage {

// Write-ahead log for maintenance epochs: one framed, CRC32C-checksummed
// entry per accepted delta batch, appended and fsynced *before* the epoch
// mutates anything in memory. File layout:
//
//   [u32 file magic "GWAL"][u32 version]
//   entry*: [u32 entry magic][u32 payload_len][u32 crc32c(payload)][payload]
//   payload: [u64 epoch seq][string entry tag][SourceDeltas]
//
// The reader consumes the longest valid prefix. A tail that ends
// mid-frame, fails its checksum, or decodes to garbage is reported as torn
// — not fatal: recovery replays the valid prefix and truncates the rest,
// which is exactly what a crash mid-append must converge to. Anything
// torn is only ever at the tail because entries are written sequentially
// and fsynced in order.

inline constexpr uint32_t kWalFileMagic = 0x4C415747;   // "GWAL" LE
inline constexpr uint32_t kWalEntryMagic = 0x31454C45;  // "ELE1" LE
inline constexpr uint32_t kWalVersion = 1;
inline constexpr size_t kWalHeaderSize = 8;
inline constexpr size_t kWalFrameHeaderSize = 12;

struct WalEntry {
  uint64_t seq = 0;
  std::string entry;  // ViewManager entry tag, e.g. "apply_update"
  ivm::SourceDeltas deltas;

  uint64_t TotalRows() const;
};

// Δ + ∇ rows across all tables.
uint64_t TotalRows(const ivm::SourceDeltas& deltas);

// Result of scanning a WAL file.
struct WalContents {
  std::vector<WalEntry> entries;  // the valid prefix, in file order
  uint64_t valid_bytes = 0;       // file offset just past the last valid entry
  uint64_t torn_bytes = 0;        // bytes after the valid prefix (0 = clean)
  std::string tail_error;         // why the tail was rejected; empty = clean
};

// Scans `path`. NotFound when the file does not exist; InvalidArgument when
// the file header itself is unreadable (wrong magic/version — nothing can
// be salvaged); otherwise OK with the valid prefix and tail diagnosis.
Result<WalContents> ReadWal(const std::string& path);

// Appender. Not thread-safe; the epoch entry points are already serial.
class WalWriter {
 public:
  // Opens `path` for appending, writing the file header when the file is
  // new or empty. `valid_bytes` (from a prior ReadWal) truncates a torn
  // tail before appending resumes; pass the file's full size when it is
  // known clean.
  static Result<WalWriter> Open(const std::string& path,
                                uint64_t valid_bytes);

  // Appends and fsyncs one entry. On failure the file may hold a torn
  // frame beyond offset(); the caller treats the entry as not written
  // (recovery truncates it).
  Status Append(uint64_t seq, const std::string& entry,
                const ivm::SourceDeltas& deltas,
                obs::MetricsRegistry* metrics = nullptr);

  // End of the last durable entry; Append restores the file to this point
  // before writing when a previous append failed partway.
  uint64_t offset() const { return durable_offset_; }

  // Drops the entry appended last (the failed-epoch path: the WAL must not
  // replay an epoch the manager rolled back). `offset_before` is offset()
  // captured before that Append.
  Status TruncateTo(uint64_t offset_before);

  // Empties the log back to its file header (after a checkpoint covers
  // every entry).
  Status Reset();

  const std::string& path() const { return file_.path(); }

 private:
  explicit WalWriter(FdFile file)
      : file_(std::move(file)), durable_offset_(file_.offset()) {}

  FdFile file_;
  uint64_t durable_offset_ = 0;
  bool last_append_torn_ = false;
};

}  // namespace gpivot::storage

#endif  // GPIVOT_STORAGE_WAL_H_
