#ifndef GPIVOT_STORAGE_CHECKPOINT_H_
#define GPIVOT_STORAGE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "relation/table.h"
#include "util/result.h"

namespace gpivot::storage {

// Full-state snapshot of a ViewManager: base catalog, materialized view
// contents, and the epoch sequence number they correspond to. One file per
// checkpoint:
//
//   [u32 file magic "GPCK"][u32 version][u64 payload_len][payload][u32 crc]
//   payload: [u64 epoch_seq]
//            [u32 nbase][(string name, Table)... sorted by name]
//            [u32 nviews][(string name, Table)... sorted by name]
//
// Tables carry their declared keys, so key indexes rebuild on load. The
// payload is canonical (sorted names, canonical table encoding): two
// managers in the same logical state write byte-identical checkpoints —
// the crash-identity property test depends on this.
//
// Files are written to `<path>.tmp`, fsynced, renamed into place, and the
// directory fsynced (as AtomicWriteFile does), so a crash leaves either the
// old file set or the new one, never a half-written checkpoint under the
// real name. A reader that finds a corrupt file (torn before the rename
// protocol existed, or bit rot) gets InvalidArgument and falls back to an
// older checkpoint.

inline constexpr uint32_t kCheckpointMagic = 0x4B435047;  // "GPCK" LE
inline constexpr uint32_t kCheckpointVersion = 1;

// Tables ride as shared immutable handles: the checkpoint writer only
// *reads* them, so it borrows each base table's and each view's current
// version (shared_table()) instead of deep-copying them — O(1) per table,
// and safe against later epochs because both stores mutate copy-on-write.
struct CheckpointContents {
  uint64_t epoch_seq = 0;
  std::map<std::string, std::shared_ptr<const Table>> base_tables;
  std::map<std::string, std::shared_ptr<const Table>> view_tables;
};

// What ReadCheckpoint decodes: the same fields, with each table owned by
// value so that recovery moves it into its catalog or view store.
struct LoadedCheckpoint {
  uint64_t epoch_seq = 0;
  std::map<std::string, Table> base_tables;
  std::map<std::string, Table> view_tables;
};

// Serializes `contents` and writes it atomically to `path`, streaming it
// through one reused fixed-size chunk: the writer never holds the file.
Status WriteCheckpoint(const std::string& path,
                       const CheckpointContents& contents,
                       obs::MetricsRegistry* metrics = nullptr);

// Reads and validates a checkpoint file. NotFound when absent;
// InvalidArgument on any framing/checksum/decode failure.
Result<LoadedCheckpoint> ReadCheckpoint(const std::string& path);

// Canonical file name for the checkpoint taken at `epoch_seq`
// (zero-padded so lexical order == numeric order).
std::string CheckpointFileName(uint64_t epoch_seq);

// All checkpoint file names in `dir` (by naming convention, not content),
// newest first. Empty when the directory has none; NotFound when the
// directory itself is missing.
Result<std::vector<std::string>> FindCheckpoints(const std::string& dir);

}  // namespace gpivot::storage

#endif  // GPIVOT_STORAGE_CHECKPOINT_H_
