#include "util/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "util/fault_injection.h"
#include "util/string_util.h"

namespace gpivot {

namespace {

Status Errno(const char* op, const std::string& path) {
  return Status::Internal(
      StrCat(op, " '", path, "' failed: ", std::strerror(errno)));
}

// Raw write(2) loop with EINTR retry; advances *offset by what landed.
Status WriteAll(int fd, const char* data, size_t n, const std::string& path,
                uint64_t* offset) {
  while (n > 0) {
    ssize_t written = ::write(fd, data, n);
    if (written < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    data += written;
    n -= static_cast<size_t>(written);
    *offset += static_cast<uint64_t>(written);
  }
  return Status::OK();
}

}  // namespace

FdFile::~FdFile() {
  if (fd_ >= 0) ::close(fd_);
}

FdFile::FdFile(FdFile&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)), offset_(other.offset_) {
  other.fd_ = -1;
}

FdFile& FdFile::operator=(FdFile&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    offset_ = other.offset_;
    other.fd_ = -1;
  }
  return *this;
}

Result<FdFile> FdFile::OpenForAppend(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return Errno("open", path);
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return Errno("lseek", path);
  }
  return FdFile(fd, path, static_cast<uint64_t>(end));
}

Result<FdFile> FdFile::CreateTruncated(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", path);
  return FdFile(fd, path, 0);
}

Status FdFile::WriteFully(std::string_view data) {
  if (fd_ < 0) return Status::Internal("WriteFully on closed file");
  GPIVOT_FAULT_POINT("file.write");
  const uint64_t start = offset_;
  // Land the first half before the torn-write fault site so an injected
  // crash here leaves a genuine partial record on disk.
  const size_t half = data.size() / 2;
  GPIVOT_RETURN_NOT_OK(WriteAll(fd_, data.data(), half, path_, &offset_));
  if (half > 0) GPIVOT_FAULT_POINT("file.write.torn");
  GPIVOT_RETURN_NOT_OK(WriteAll(fd_, data.data() + half, data.size() - half,
                                path_, &offset_));
#ifdef __linux__
  // Writeback starts now, so a streamed file's final fsync waits for less.
  (void)::sync_file_range(fd_, static_cast<off_t>(start),
                          static_cast<off_t>(data.size()),
                          SYNC_FILE_RANGE_WRITE);
#endif
  return Status::OK();
}

Status FdFile::WriteAt(uint64_t offset, std::string_view data) {
  if (fd_ < 0) return Status::Internal("WriteAt on closed file");
  GPIVOT_FAULT_POINT("file.write");
  if (::pwrite(fd_, data.data(), data.size(), static_cast<off_t>(offset)) !=
      static_cast<ssize_t>(data.size())) {
    return Errno("pwrite", path_);
  }
  return Status::OK();
}

Status FdFile::Fsync() {
  if (fd_ < 0) return Status::Internal("Fsync on closed file");
  GPIVOT_FAULT_POINT("file.fsync");
  if (::fsync(fd_) != 0) return Errno("fsync", path_);
  return Status::OK();
}

Status FdFile::Truncate(uint64_t size) {
  if (fd_ < 0) return Status::Internal("Truncate on closed file");
  GPIVOT_FAULT_POINT("file.truncate");
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Errno("ftruncate", path_);
  }
  // ftruncate does not move the kernel file offset; without a reseek a
  // non-O_APPEND fd would write past the new EOF, leaving a zero hole.
  if (::lseek(fd_, static_cast<off_t>(size), SEEK_SET) < 0) {
    return Errno("lseek", path_);
  }
  offset_ = size;
  return Status::OK();
}

Status FdFile::Close() {
  if (fd_ < 0) return Status::OK();
  int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) return Errno("close", path_);
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound(StrCat("file '", path, "' does not exist"));
    }
    return Errno("open", path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Errno("fstat", path);
  }
  std::string out(static_cast<size_t>(st.st_size), '\0');
  size_t got = 0;
  while (got < out.size()) {
    ssize_t n = ::read(fd, out.data() + got, out.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      ::close(fd);
      return Errno("read", path);
    }
    if (n == 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  out.resize(got);
  return out;
}

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  GPIVOT_ASSIGN_OR_RETURN(FdFile file, FdFile::CreateTruncated(path + ".tmp"));
  GPIVOT_RETURN_NOT_OK(file.WriteFully(contents));
  return CommitAtomicWrite(std::move(file), path);
}

Status CommitAtomicWrite(FdFile tmp, const std::string& path) {
  GPIVOT_RETURN_NOT_OK(tmp.Fsync());
  GPIVOT_RETURN_NOT_OK(tmp.Close());
  GPIVOT_FAULT_POINT("file.rename");
  if (::rename(tmp.path().c_str(), path.c_str()) != 0) {
    return Errno("rename", tmp.path());
  }
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  return FsyncDir(parent.empty() ? "." : parent.string());
}

Status FsyncDir(const std::string& dir) {
  GPIVOT_FAULT_POINT("file.dirsync");
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Errno("open dir", dir);
  int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Errno("fsync dir", dir);
  return Status::OK();
}

Result<std::vector<std::string>> ListDirFiles(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    if (ec == std::errc::no_such_file_or_directory) {
      return Status::NotFound(StrCat("directory '", dir, "' does not exist"));
    }
    return Status::Internal(
        StrCat("list '", dir, "' failed: ", ec.message()));
  }
  std::vector<std::string> names;
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec) && !ec) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

Status EnsureDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal(
        StrCat("create directory '", dir, "' failed: ", ec.message()));
  }
  return Status::OK();
}

Status RemoveFileIfExists(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  if (ec) {
    return Status::Internal(
        StrCat("remove '", path, "' failed: ", ec.message()));
  }
  return Status::OK();
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec) && !ec;
}

}  // namespace gpivot
