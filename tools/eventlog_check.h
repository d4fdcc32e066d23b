#ifndef GPIVOT_TOOLS_EVENTLOG_CHECK_H_
#define GPIVOT_TOOLS_EVENTLOG_CHECK_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace gpivot::tools {

// Validation result for one event-log document (the JSONL file
// GPIVOT_EVENT_LOG points at). `ok` is false on the first malformed line;
// `error` then says which line and why. Counts cover the whole file so a
// caller can also assert on volume ("at least one committed epoch").
struct EventLogCheckResult {
  bool ok = true;
  std::string error;
  uint64_t lines = 0;
  uint64_t epoch_records = 0;   // records with an "outcome" member
  uint64_t committed = 0;       // ... of those, outcome == "committed"
  uint64_t no_ops = 0;          // ... outcome == "no_op"
  uint64_t recovery_records = 0;  // {"recovery": {...}} (recovery summary)
  uint64_t serve_records = 0;     // {"serve": "install"|"retire", ...}
};

// Validates `contents` line by line. Every line must be one strict JSON
// object of a known record kind:
//   - epoch record: has "outcome" (committed / rolled_back / rejected /
//     no_op), a numeric "seq", and a string "entry"
//   - recovery summary: has "recovery" holding an object with "epoch_seq"
//   - serve record: has "serve" equal to "install" (with "seq" and a
//     "views" array) or "retire" (with "view" and "seq")
// Anything else — unparseable line, unknown shape, bad outcome — fails.
//
// Epoch records must also follow the numbering rule: only committed epochs
// consume a seq. With N the seq of the last committed epoch, a committed,
// rolled-back or rejected record carries N + 1 and a no_op carries N. A
// recovery record resumes its store's numbering and sets N to its
// epoch_seq, which must not fall below N: a recovery that lost committed
// epochs fails. A recovery at epoch_seq 0 (an empty store), or a record
// that carries 1 (a no_op: 0), may instead open a fresh numbering at
// N = 0, because one log may hold the epochs of several managers in turn.
// So a seq that a failed epoch consumed, or a committed seq above 1
// handed out twice, fails. Seq 1 handed out twice passes: from the seqs
// alone it cannot be told from a second manager's first epoch.
//
// With `require_committed`, additionally fail unless at least one epoch
// record committed and no epoch record rolled back or was rejected (the
// smoke benches run fault-free, so any non-committed outcome there is a
// regression).
EventLogCheckResult CheckEventLog(std::string_view contents,
                                  bool require_committed);

}  // namespace gpivot::tools

#endif  // GPIVOT_TOOLS_EVENTLOG_CHECK_H_
