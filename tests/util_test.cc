// Unit tests for the util layer: Status/Result, strings, hashing, RNG.
#include <gtest/gtest.h>

#include "util/check.h"
#include "util/hash_util.h"
#include "util/random.h"
#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"

namespace gpivot {
namespace {

TEST(StatusTest, OkIsDefaultAndCheap) {
  Status ok;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.code(), StatusCode::kOk);
  EXPECT_EQ(ok.message(), "");
  EXPECT_EQ(ok.ToString(), "OK");
  EXPECT_TRUE(Status::OK().ok());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad pivot");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad pivot");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad pivot");
}

TEST(StatusTest, AllConstructorsMapToPredicates) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::NotApplicable("x").IsNotApplicable());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_TRUE(Status::ConstraintViolation("x").IsConstraintViolation());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
}

TEST(StatusTest, CopyAndMove) {
  Status st = Status::NotFound("gone");
  Status copy = st;
  EXPECT_TRUE(copy.IsNotFound());
  EXPECT_TRUE(st.IsNotFound());
  Status moved = std::move(st);
  EXPECT_TRUE(moved.IsNotFound());
  Status assigned;
  assigned = copy;
  EXPECT_EQ(assigned.message(), "gone");
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  GPIVOT_ASSIGN_OR_RETURN(int value, ParsePositive(x));
  return value * 2;
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> good = ParsePositive(3);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 3);
  Result<int> bad = ParsePositive(-1);
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsInvalidArgument());
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(4), 8);
  EXPECT_TRUE(Doubled(-4).status().IsInvalidArgument());
}

TEST(ResultTest, AccessingErrorAborts) {
  Result<int> bad = ParsePositive(-1);
  EXPECT_DEATH({ int x = *bad; (void)x; }, "Result::value on error");
}

TEST(ResultTest, MoveOnlyValues) {
  Result<std::unique_ptr<int>> r{std::make_unique<int>(7)};
  std::unique_ptr<int> owned = std::move(r).value();
  EXPECT_EQ(*owned, 7);
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Split("a**b**c", "**"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("abc", "**"), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(Split("", "**"), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("**", "**"), (std::vector<std::string>{"", ""}));
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  std::vector<std::string> parts = {"Sony", "TV", "Price"};
  EXPECT_EQ(Split(Join(parts, "**"), "**"), parts);
}

TEST(StringUtilTest, StrCatMixesTypes) {
  EXPECT_EQ(StrCat("x=", 42, ", y=", 1.5), "x=42, y=1.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("Sony**TV", "Sony"));
  EXPECT_FALSE(StartsWith("So", "Sony"));
}

TEST(HashUtilTest, CombineOrderSensitive) {
  size_t a = HashCombine(HashCombine(0, 1), 2);
  size_t b = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(a, b);
}

TEST(RngTest, DeterministicAndInRange) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    int64_t va = a.Int(-5, 5);
    EXPECT_EQ(va, b.Int(-5, 5));
    EXPECT_GE(va, -5);
    EXPECT_LE(va, 5);
  }
  EXPECT_EQ(a.Int(3, 3), 3);
}

TEST(RngTest, RealAndChanceBounds) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    double v = rng.Real(0.0, 1.0);
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(&shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(RngTest, StringIsLowercase) {
  Rng rng(11);
  std::string s = rng.String(32);
  EXPECT_EQ(s.size(), 32u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

TEST(CheckTest, PassingCheckIsSilent) {
  GPIVOT_CHECK(1 + 1 == 2) << "never printed";
  SUCCEED();
}

TEST(CheckTest, FailingCheckAbortsWithMessage) {
  EXPECT_DEATH(GPIVOT_CHECK(false) << "extra context 123",
               "extra context 123");
}

}  // namespace
}  // namespace gpivot
