#include "storage/inspect.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <utility>
#include <vector>

#include "obs/json_util.h"
#include "storage/checkpoint.h"
#include "storage/serialize.h"
#include "storage/wal.h"
#include "util/file_io.h"
#include "util/string_util.h"

namespace gpivot::storage {

namespace {

// Reads the first four bytes to classify the file; 0 when too short.
uint32_t FileMagic(const std::string& path) {
  char bytes[4];
  std::ifstream in(path, std::ios::binary);
  if (!in.read(bytes, sizeof(bytes))) return 0;
  return BinaryReader(std::string_view(bytes, sizeof(bytes))).GetU32().value();
}

// Each helper appends human-readable lines to report->text and pushes one
// JSON object for the file onto `files_json`; Inspect assembles the final
// document.
void InspectWalFile(const std::string& path, InspectReport* report,
                    std::vector<std::string>* files_json) {
  report->text += StrCat("wal ", path, "\n");
  Result<WalContents> wal = ReadWal(path);
  if (!wal.ok()) {
    report->clean = false;
    report->text += StrCat("  UNREADABLE: ", wal.status().ToString(), "\n");
    files_json->push_back(StrCat(
        "{\"path\": ", obs::JsonQuote(path),
        ", \"kind\": \"wal\", \"clean\": false, \"error\": ",
        obs::JsonQuote(wal.status().ToString()), "}"));
    return;
  }
  std::string entries_json;
  for (const WalEntry& entry : wal->entries) {
    std::string tables;
    std::map<std::string, const ivm::Delta*> sorted;
    for (const auto& [name, delta] : entry.deltas) {
      sorted.emplace(name, &delta);
    }
    for (const auto& [name, delta] : sorted) {
      tables += StrCat(" ", name, "(+", delta->inserts.num_rows(), " -",
                       delta->deletes.num_rows(), ")");
    }
    report->text += StrCat("  entry seq=", entry.seq, " tag=", entry.entry,
                           " rows=", entry.TotalRows(), tables, "\n");
    entries_json += StrCat(entries_json.empty() ? "" : ", ",
                           "{\"seq\": ", entry.seq,
                           ", \"entry\": ", obs::JsonQuote(entry.entry),
                           ", \"rows\": ", entry.TotalRows(), "}");
  }
  report->text += StrCat("  entries=", wal->entries.size(),
                         " valid_bytes=", wal->valid_bytes);
  bool torn = wal->torn_bytes > 0;
  if (torn) {
    report->clean = false;
    report->text += StrCat(" TORN tail: ", wal->torn_bytes, " bytes (",
                           wal->tail_error, ")");
  } else {
    report->text += " tail=clean";
  }
  report->text += "\n";
  // valid_bytes doubles as the durable offset: everything below it
  // replays, everything past it is torn tail the writer will discard.
  files_json->push_back(StrCat(
      "{\"path\": ", obs::JsonQuote(path), ", \"kind\": \"wal\", \"clean\": ",
      torn ? "false" : "true", ", \"frames\": ", wal->entries.size(),
      ", \"valid_bytes\": ", wal->valid_bytes,
      ", \"durable_offset\": ", wal->valid_bytes,
      ", \"torn_bytes\": ", wal->torn_bytes,
      ", \"tail_error\": ", obs::JsonQuote(wal->tail_error),
      ", \"entries\": [", entries_json, "]}"));
}

void InspectCheckpointFile(const std::string& path, InspectReport* report,
                           std::vector<std::string>* files_json) {
  report->text += StrCat("checkpoint ", path, "\n");
  Result<LoadedCheckpoint> contents = ReadCheckpoint(path);
  if (!contents.ok()) {
    report->clean = false;
    report->text +=
        StrCat("  INVALID: ", contents.status().ToString(), "\n");
    files_json->push_back(StrCat(
        "{\"path\": ", obs::JsonQuote(path),
        ", \"kind\": \"checkpoint\", \"clean\": false, \"error\": ",
        obs::JsonQuote(contents.status().ToString()), "}"));
    return;
  }
  report->text += StrCat("  epoch_seq=", contents->epoch_seq, "\n");
  std::string tables_json;
  for (const auto& [kind, tables] :
       {std::pair{"base", &contents->base_tables},
        std::pair{"view", &contents->view_tables}}) {
    for (const auto& [name, table] : *tables) {
      report->text +=
          StrCat("  ", kind, " ", name, ": ", table.num_rows(), " rows\n");
      tables_json += StrCat(tables_json.empty() ? "" : ", ",
                            "{\"table\": ", obs::JsonQuote(name),
                            ", \"kind\": \"", kind, "\", \"rows\": ",
                            table.num_rows(), "}");
    }
  }
  files_json->push_back(StrCat(
      "{\"path\": ", obs::JsonQuote(path),
      ", \"kind\": \"checkpoint\", \"clean\": true, \"epoch_seq\": ",
      contents->epoch_seq, ", \"tables\": [", tables_json, "]}"));
}

Status InspectFile(const std::string& path, InspectReport* report,
                   std::vector<std::string>* files_json) {
  switch (FileMagic(path)) {
    case kWalFileMagic:
      InspectWalFile(path, report, files_json);
      return Status::OK();
    case kCheckpointMagic:
      InspectCheckpointFile(path, report, files_json);
      return Status::OK();
    default:
      return Status::InvalidArgument(
          StrCat("'", path, "' is neither a WAL nor a checkpoint file"));
  }
}

void FinalizeJson(InspectReport* report,
                  const std::vector<std::string>& files_json) {
  report->json = StrCat("{\"clean\": ", report->clean ? "true" : "false",
                        ", \"files\": [", Join(files_json, ", "), "]}");
}

}  // namespace

Result<InspectReport> Inspect(const std::string& path) {
  InspectReport report;
  std::vector<std::string> files_json;
  std::error_code ec;
  if (std::filesystem::is_directory(path, ec) && !ec) {
    GPIVOT_ASSIGN_OR_RETURN(std::vector<std::string> names,
                            ListDirFiles(path));
    size_t inspected = 0;
    for (const std::string& name : names) {
      const std::string full = StrCat(path, "/", name);
      // Only files this layer wrote; a directory may hold event logs,
      // bench output, leftover .tmp files from a torn checkpoint, etc.
      uint32_t magic = FileMagic(full);
      if (magic != kWalFileMagic && magic != kCheckpointMagic) continue;
      GPIVOT_RETURN_NOT_OK(InspectFile(full, &report, &files_json));
      ++inspected;
    }
    report.text += StrCat("inspected ", inspected, " file(s) in ", path,
                          ": ", report.clean ? "clean" : "NOT CLEAN", "\n");
    FinalizeJson(&report, files_json);
    return report;
  }
  if (!FileExists(path)) {
    return Status::NotFound(StrCat("'", path, "' does not exist"));
  }
  GPIVOT_RETURN_NOT_OK(InspectFile(path, &report, &files_json));
  FinalizeJson(&report, files_json);
  return report;
}

}  // namespace gpivot::storage
