#ifndef GPIVOT_UTIL_FILE_IO_H_
#define GPIVOT_UTIL_FILE_IO_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace gpivot {

// POSIX file helpers for the durability layer. Every mutation boundary a
// crash could tear — write, fsync, rename, truncate — carries a
// FaultInjector site, so the crash-loop tests can kill the process (by
// forcing an error with the bytes written so far left on disk) at each one
// and assert recovery converges. Fault site names are the ones listed here;
// sweeps iterate over whatever a code path traverses.
//
// The crash model is process-kill: a fault at a write site leaves a real
// partial write behind, which is exactly the torn-tail shape the WAL reader
// must truncate. Fsync sites are placed where a power-loss-safe
// implementation needs them; the in-process tests cannot test the kernel's
// buffering, but the call order is the contract.

// An owned file descriptor opened for writing. Not thread-safe.
class FdFile {
 public:
  FdFile() = default;
  ~FdFile();
  FdFile(FdFile&& other) noexcept;
  FdFile& operator=(FdFile&& other) noexcept;
  FdFile(const FdFile&) = delete;
  FdFile& operator=(const FdFile&) = delete;

  // Opens `path` for appending, creating it when absent. The write offset
  // starts at the current end of file (see offset()).
  static Result<FdFile> OpenForAppend(const std::string& path);
  // Opens `path` for writing from scratch (created or truncated to empty).
  static Result<FdFile> CreateTruncated(const std::string& path);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }
  // Logical end-of-file as tracked by this writer: advanced by WriteFully
  // (including the bytes a torn write got out before failing), reset by
  // Truncate.
  uint64_t offset() const { return offset_; }

  // Appends all of `data` and, on Linux, starts its writeback without
  // waiting. Fault sites: "file.write" (before any byte) and
  // "file.write.torn" (after the first half of a multi-byte write — the
  // injected failure leaves a real partial write on disk).
  Status WriteFully(std::string_view data);

  // Overwrites bytes already written at `offset` (pwrite), leaving the
  // write offset where it is. Fault site: "file.write".
  Status WriteAt(uint64_t offset, std::string_view data);

  // Flushes file contents to stable storage. Fault site: "file.fsync"
  // (before the fsync).
  Status Fsync();

  // Truncates the file to `size` bytes and moves the write offset there.
  // Fault site: "file.truncate".
  Status Truncate(uint64_t size);

  Status Close();

 private:
  FdFile(int fd, std::string path, uint64_t offset)
      : fd_(fd), path_(std::move(path)), offset_(offset) {}

  int fd_ = -1;
  std::string path_;
  uint64_t offset_ = 0;
};

// Reads all of `path` into a string sized once by fstat. NotFound if absent.
Result<std::string> ReadFileToString(const std::string& path);

// Writes `contents` to `path` atomically: a sibling "<path>.tmp" is
// written, fsynced, closed, renamed over `path`, and the parent directory
// fsynced, so a crash leaves either the old file or the complete new one —
// never a partial. Fault sites: the FdFile write/fsync sites plus
// "file.rename" (before the rename) and "file.dirsync" (before the
// directory fsync). A failed attempt may leave the .tmp sibling behind;
// callers ignore and eventually clean *.tmp.
Status AtomicWriteFile(const std::string& path, std::string_view contents);

// AtomicWriteFile after its write, for a writer that streams "<path>.tmp"
// itself: fsync and close `tmp`, rename it over `path`, fsync the dir.
Status CommitAtomicWrite(FdFile tmp, const std::string& path);

// Fsyncs the directory itself (durability of rename/unlink metadata).
// Fault site: "file.dirsync".
Status FsyncDir(const std::string& dir);

// Regular-file names (not paths) inside `dir`, sorted. NotFound when the
// directory does not exist.
Result<std::vector<std::string>> ListDirFiles(const std::string& dir);

// Creates `dir` (and parents) when missing.
Status EnsureDir(const std::string& dir);

// Deletes a file if it exists. Best-effort helpers for checkpoint pruning;
// no fault site (pruning is not a correctness boundary — stale files are
// ignored by recovery).
Status RemoveFileIfExists(const std::string& path);

bool FileExists(const std::string& path);

}  // namespace gpivot

#endif  // GPIVOT_UTIL_FILE_IO_H_
