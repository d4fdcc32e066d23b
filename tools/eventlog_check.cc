#include "tools/eventlog_check.h"

#include <cmath>
#include <optional>

#include "obs/json_util.h"
#include "util/string_util.h"

namespace gpivot::tools {

namespace {

// Sets the failure on the first bad line only: one clear diagnosis beats a
// flood of knock-on errors from the same malformed file.
void Fail(EventLogCheckResult* result, uint64_t line_no,
          const std::string& why) {
  if (!result->ok) return;
  result->ok = false;
  result->error = StrCat("line ", line_no, ": ", why);
}

// A JSON number that is a whole, non-negative seq.
std::optional<uint64_t> SeqOf(const obs::JsonValue* value) {
  if (value == nullptr || !value->is_number() || value->number_value < 0 ||
      value->number_value != std::floor(value->number_value)) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(value->number_value);
}

// `last_committed` is the seq of the last committed epoch of the numbering
// the log is in; see CheckEventLog for the rule it enforces.
void CheckLine(std::string_view line, uint64_t line_no,
               EventLogCheckResult* result, uint64_t* last_committed) {
  std::string parse_error;
  std::optional<obs::JsonValue> parsed =
      obs::ParseJson(line, &parse_error);
  if (!parsed.has_value()) {
    Fail(result, line_no, StrCat("not valid JSON (", parse_error, ")"));
    return;
  }
  if (!parsed->is_object()) {
    Fail(result, line_no, "record is not a JSON object");
    return;
  }

  if (const obs::JsonValue* recovery = parsed->Find("recovery");
      recovery != nullptr) {
    ++result->recovery_records;
    std::optional<uint64_t> anchor =
        recovery->is_object() ? SeqOf(recovery->Find("epoch_seq"))
                              : std::nullopt;
    if (!anchor.has_value()) {
      Fail(result, line_no,
           "recovery record must hold an object with a numeric "
           "\"epoch_seq\"");
      return;
    }
    if (*anchor != 0 && *anchor < *last_committed) {
      Fail(result, line_no,
           StrCat("recovery resumes at seq ", *anchor,
                  ", below the last committed seq ", *last_committed,
                  " (committed epochs were lost)"));
      return;
    }
    *last_committed = *anchor;
    return;
  }

  if (const obs::JsonValue* serve = parsed->Find("serve"); serve != nullptr) {
    ++result->serve_records;
    if (!serve->is_string()) {
      Fail(result, line_no, "\"serve\" must be a string");
      return;
    }
    if (serve->string_value == "install") {
      const obs::JsonValue* views = parsed->Find("views");
      if (parsed->Find("seq") == nullptr || views == nullptr ||
          !views->is_array()) {
        Fail(result, line_no,
             "serve install record needs \"seq\" and a \"views\" array");
      }
    } else if (serve->string_value == "retire") {
      if (parsed->Find("view") == nullptr || parsed->Find("seq") == nullptr) {
        Fail(result, line_no,
             "serve retire record needs \"view\" and \"seq\"");
      }
    } else {
      Fail(result, line_no,
           StrCat("unknown serve record kind '", serve->string_value, "'"));
    }
    return;
  }

  const obs::JsonValue* outcome = parsed->Find("outcome");
  if (outcome == nullptr) {
    Fail(result, line_no,
         "unknown record kind (no \"outcome\", \"recovery\", or \"serve\")");
    return;
  }
  ++result->epoch_records;
  if (!outcome->is_string()) {
    Fail(result, line_no, "\"outcome\" must be a string");
    return;
  }
  const std::string& value = outcome->string_value;
  if (value == "committed") {
    ++result->committed;
  } else if (value == "no_op") {
    ++result->no_ops;
  } else if (value != "rolled_back" && value != "rejected") {
    Fail(result, line_no, StrCat("unknown outcome '", value, "'"));
    return;
  }
  std::optional<uint64_t> seq = SeqOf(parsed->Find("seq"));
  if (!seq.has_value()) {
    Fail(result, line_no, "epoch record needs a numeric \"seq\"");
    return;
  }
  const obs::JsonValue* entry = parsed->Find("entry");
  if (entry == nullptr || !entry->is_string()) {
    Fail(result, line_no, "epoch record needs a string \"entry\"");
    return;
  }
  // The last committed seq this record implies: its own seq for a no_op,
  // one less for an epoch that did work (committed or not).
  const bool no_op = value == "no_op";
  if (!no_op && *seq == 0) {
    Fail(result, line_no, StrCat("a ", value, " epoch cannot carry seq 0"));
    return;
  }
  const uint64_t before = no_op ? *seq : *seq - 1;
  if (before != *last_committed && before != 0) {
    Fail(result, line_no,
         StrCat(value, " epoch carries seq ", *seq,
                ", but the last committed seq is ", *last_committed,
                " (only committed epochs consume a seq)"));
    return;
  }
  *last_committed = value == "committed" ? *seq : before;
}

}  // namespace

EventLogCheckResult CheckEventLog(std::string_view contents,
                                  bool require_committed) {
  EventLogCheckResult result;
  uint64_t last_committed = 0;
  size_t start = 0;
  uint64_t line_no = 0;
  while (start < contents.size()) {
    size_t end = contents.find('\n', start);
    if (end == std::string_view::npos) end = contents.size();
    std::string_view line = contents.substr(start, end - start);
    start = end + 1;
    ++line_no;
    if (line.empty()) continue;  // tolerate a trailing newline only
    ++result.lines;
    CheckLine(line, line_no, &result, &last_committed);
  }
  if (result.ok && require_committed) {
    uint64_t failed =
        result.epoch_records - result.committed - result.no_ops;
    if (result.committed == 0) {
      result.ok = false;
      result.error = "no committed epoch record found";
    } else if (failed > 0) {
      result.ok = false;
      result.error = StrCat(failed,
                            " epoch record(s) rolled back or were rejected");
    }
  }
  return result;
}

}  // namespace gpivot::tools
