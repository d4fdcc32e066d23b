#ifndef GPIVOT_OBS_EVENT_LOG_H_
#define GPIVOT_OBS_EVENT_LOG_H_

#include <fstream>
#include <mutex>
#include <string>

namespace gpivot::obs {

// Append-only JSONL sink for structured epoch records: one complete JSON
// document per line, one line per maintenance epoch (see
// ViewManager::LastEpochReportJson for the record shape). The file is
// opened once in append mode and every Append writes a single line under a
// mutex, so concurrent writers interleave at line granularity only.
//
// Record contents are deterministic (no timestamps), so two runs of the
// same workload produce byte-identical logs — the determinism tests compare
// whole files.
class EventLog {
 public:
  explicit EventLog(std::string path);

  // False when the path could not be opened for appending; `error()` then
  // explains. Appends on a failed log are dropped silently (callers that
  // must fail fast — the bench harness — check ok() up front).
  bool ok() const { return out_.is_open() && !out_.fail(); }
  const std::string& error() const { return error_; }
  const std::string& path() const { return path_; }

  // Writes `json_line` (one complete JSON document, no trailing newline)
  // plus '\n', then flushes.
  void Append(const std::string& json_line);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

 private:
  std::string path_;
  std::string error_;
  std::mutex mu_;
  std::ofstream out_;
};

// Returns a process-wide EventLog for the path in GPIVOT_EVENT_LOG, or
// nullptr when the variable is unset/empty. The env var is read once per
// process; the log is leaked (epoch records may be appended during static
// destruction). An unwritable path still returns the log object — with
// ok() false — so the bench harness can report the problem and exit.
EventLog* EventLogFromEnv();

}  // namespace gpivot::obs

#endif  // GPIVOT_OBS_EVENT_LOG_H_
