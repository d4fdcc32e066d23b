// Tests for the eventlog_check validator (tools/eventlog_check.*): the
// record-kind grammar for epoch / recovery / serve lines, first-error
// diagnostics, and the --require-committed contract the CI smoke job
// enforces on fault-free bench runs.
#include <gtest/gtest.h>

#include <string>

#include "tools/eventlog_check.h"

namespace gpivot::tools {
namespace {

TEST(EventLogCheckTest, AcceptsAWellFormedMixedLog) {
  const std::string log =
      "{\"seq\": 1, \"outcome\": \"committed\", \"entry\": \"epoch\"}\n"
      "{\"seq\": 1, \"outcome\": \"no_op\", \"entry\": \"epoch\"}\n"
      "{\"recovery\": {\"epoch_seq\": 2, \"wal_frames\": 7}}\n"
      "{\"serve\": \"install\", \"seq\": 2, \"views\": [\"v\"]}\n"
      "{\"serve\": \"retire\", \"view\": \"v\", \"seq\": 1}\n";
  EventLogCheckResult result = CheckEventLog(log, /*require_committed=*/false);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.lines, 5u);
  EXPECT_EQ(result.epoch_records, 2u);
  EXPECT_EQ(result.committed, 1u);
  EXPECT_EQ(result.no_ops, 1u);
  EXPECT_EQ(result.recovery_records, 1u);
  EXPECT_EQ(result.serve_records, 2u);
}

TEST(EventLogCheckTest, EmptyLogIsValidWithoutRequireCommitted) {
  EXPECT_TRUE(CheckEventLog("", false).ok);
  EXPECT_TRUE(CheckEventLog("\n\n", false).ok);  // blank lines tolerated
  EXPECT_FALSE(CheckEventLog("", true).ok);      // but nothing committed
}

TEST(EventLogCheckTest, RejectsMalformedJsonWithLineNumber) {
  const std::string log =
      "{\"seq\": 1, \"outcome\": \"committed\", \"entry\": \"e\"}\n"
      "{\"seq\": 2, \"outcome\": \n";
  EventLogCheckResult result = CheckEventLog(log, false);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 2"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("not valid JSON"), std::string::npos);
}

TEST(EventLogCheckTest, RejectsUnknownRecordKindsAndShapes) {
  EXPECT_FALSE(CheckEventLog("[1, 2]\n", false).ok);       // not an object
  EXPECT_FALSE(CheckEventLog("{\"what\": 1}\n", false).ok);  // unknown kind
  // Epoch records need a string outcome from the known set, a numeric seq,
  // and a string entry.
  EXPECT_FALSE(
      CheckEventLog("{\"outcome\": \"exploded\", \"seq\": 1, "
                    "\"entry\": \"e\"}\n",
                    false)
          .ok);
  EXPECT_FALSE(
      CheckEventLog("{\"outcome\": 7, \"seq\": 1, \"entry\": \"e\"}\n", false)
          .ok);
  EXPECT_FALSE(
      CheckEventLog("{\"outcome\": \"committed\", \"entry\": \"e\"}\n", false)
          .ok);
  EXPECT_FALSE(CheckEventLog(
                   "{\"outcome\": \"committed\", \"seq\": \"one\", "
                   "\"entry\": \"e\"}\n",
                   false)
                   .ok);
  EXPECT_FALSE(
      CheckEventLog("{\"outcome\": \"committed\", \"seq\": 1}\n", false).ok);
  // Recovery must hold an object with epoch_seq.
  EXPECT_FALSE(CheckEventLog("{\"recovery\": 3}\n", false).ok);
  EXPECT_FALSE(CheckEventLog("{\"recovery\": {\"frames\": 3}}\n", false).ok);
  // Serve records: install needs seq + views array, retire view + seq.
  EXPECT_FALSE(CheckEventLog("{\"serve\": \"upgrade\"}\n", false).ok);
  EXPECT_FALSE(
      CheckEventLog("{\"serve\": \"install\", \"seq\": 1}\n", false).ok);
  EXPECT_FALSE(CheckEventLog(
                   "{\"serve\": \"install\", \"seq\": 1, \"views\": 9}\n",
                   false)
                   .ok);
  EXPECT_FALSE(
      CheckEventLog("{\"serve\": \"retire\", \"view\": \"v\"}\n", false).ok);
}

// Only committed epochs consume a seq: a failed epoch carries the seq it
// attempted, the next epoch attempts it again, a no_op carries the last
// committed seq, and a recovery record re-anchors the numbering.
TEST(EventLogCheckTest, EnforcesCommittedOnlyNumbering) {
  auto line = [](int seq, const char* outcome) {
    return "{\"seq\": " + std::to_string(seq) + ", \"outcome\": \"" +
           outcome + "\", \"entry\": \"e\"}\n";
  };
  const std::string valid =
      line(0, "no_op") + line(1, "committed") + line(2, "rejected") +
      line(2, "rolled_back") + line(1, "no_op") + line(2, "committed") +
      "{\"serve\": \"install\", \"seq\": 2, \"views\": [\"v\"]}\n" +
      "{\"recovery\": {\"epoch_seq\": 5}}\n" + line(6, "rejected") +
      line(6, "committed") +
      // A second manager's numbering starts over.
      line(1, "rejected") + line(1, "committed") + line(2, "committed");
  EventLogCheckResult result = CheckEventLog(valid, false);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.committed, 5u);

  // A failed epoch that consumed its seq: the next commit skips one.
  result = CheckEventLog(
      line(1, "committed") + line(2, "rejected") + line(3, "committed"),
      false);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 3"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("only committed epochs consume a seq"),
            std::string::npos)
      << result.error;
  EXPECT_FALSE(CheckEventLog(line(1, "committed") + line(2, "rolled_back") +
                                 line(3, "rolled_back"),
                             false)
                   .ok);
  // A committed seq handed out twice, and a no_op ahead of the numbering.
  EXPECT_FALSE(CheckEventLog(line(1, "committed") + line(2, "committed") +
                                 line(2, "committed"),
                             false)
                   .ok);
  EXPECT_FALSE(
      CheckEventLog(line(1, "committed") + line(2, "no_op"), false).ok);
  // Behind the recovery anchor, and seq 0 for an epoch that did work.
  EXPECT_FALSE(CheckEventLog("{\"recovery\": {\"epoch_seq\": 5}}\n" +
                                 line(3, "committed"),
                             false)
                   .ok);
  EXPECT_FALSE(CheckEventLog(line(0, "rejected"), false).ok);
  // A recovery that lost committed epochs 4 and 5, then hands out 4 again.
  result = CheckEventLog(line(1, "committed") + line(2, "committed") +
                             line(3, "committed") + line(4, "committed") +
                             line(5, "committed") +
                             "{\"recovery\": {\"epoch_seq\": 3}}\n" +
                             line(4, "committed"),
                         false);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 6"), std::string::npos) << result.error;
  EXPECT_NE(result.error.find("committed epochs were lost"),
            std::string::npos)
      << result.error;
  // An empty store's recovery opens a fresh numbering, and a reopen
  // resumes it at its last committed seq.
  EXPECT_TRUE(CheckEventLog(line(1, "committed") + line(2, "committed") +
                                "{\"recovery\": {\"epoch_seq\": 0}}\n" +
                                line(1, "committed") +
                                "{\"recovery\": {\"epoch_seq\": 1}}\n" +
                                line(2, "committed"),
                            false)
                  .ok);
}

TEST(EventLogCheckTest, ReportsOnlyTheFirstError) {
  EventLogCheckResult result = CheckEventLog("nope\nalso nope\n", false);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("line 1"), std::string::npos);
  EXPECT_EQ(result.error.find("line 2"), std::string::npos);
  EXPECT_EQ(result.lines, 2u);  // counting continues past the failure
}

TEST(EventLogCheckTest, RequireCommittedContract) {
  const char* committed =
      "{\"seq\": 1, \"outcome\": \"committed\", \"entry\": \"e\"}\n";
  EXPECT_TRUE(CheckEventLog(committed, true).ok);

  // no_op alone does not satisfy the requirement.
  const char* only_no_op =
      "{\"seq\": 0, \"outcome\": \"no_op\", \"entry\": \"e\"}\n";
  EventLogCheckResult result = CheckEventLog(only_no_op, true);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no committed"), std::string::npos);

  // A rolled-back or rejected epoch in a supposedly fault-free run fails
  // even when another epoch committed.
  const std::string with_rollback = std::string(committed) +
      "{\"seq\": 2, \"outcome\": \"rolled_back\", \"entry\": \"e\"}\n";
  result = CheckEventLog(with_rollback, true);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("rolled back"), std::string::npos);

  const std::string with_rejected = std::string(committed) +
      "{\"seq\": 2, \"outcome\": \"rejected\", \"entry\": \"e\"}\n";
  EXPECT_FALSE(CheckEventLog(with_rejected, true).ok);
  // Without the flag the same logs are fine.
  EXPECT_TRUE(CheckEventLog(with_rollback, false).ok);
  EXPECT_TRUE(CheckEventLog(with_rejected, false).ok);
}

}  // namespace
}  // namespace gpivot::tools
