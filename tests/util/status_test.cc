#include "util/status.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace mgardp {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::Invalid("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "Invalid argument: bad input");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Overloaded("x").code(), StatusCode::kOverloaded);
}

TEST(StatusTest, OverloadedIsDistinctAndPrintable) {
  // Load shedding must be machine-distinguishable from caller bugs
  // (kFailedPrecondition) so clients know a resubmit can succeed.
  const Status s = Status::Overloaded("queue full");
  EXPECT_NE(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(s.ToString(), "Overloaded: queue full");
}

TEST(StatusTest, EveryCodeHasADistinctName) {
  std::set<std::string> names;
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kNotFound, StatusCode::kIOError,
        StatusCode::kFailedPrecondition, StatusCode::kInternal,
        StatusCode::kDataLoss, StatusCode::kOverloaded}) {
    ASSERT_NE(StatusCodeToString(code), nullptr);
    names.insert(StatusCodeToString(code));
  }
  EXPECT_EQ(names.size(), 9u);
  const Status loss = Status::DataLoss("crc mismatch");
  EXPECT_EQ(loss.code(), StatusCode::kDataLoss);
  EXPECT_EQ(loss.ToString(), "Data loss: crc mismatch");
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Invalid("a"), Status::Invalid("a"));
  EXPECT_FALSE(Status::Invalid("a") == Status::Invalid("b"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

Result<int> Half(int x) {
  if (x % 2 != 0) {
    return Status::Invalid("odd");
  }
  return x / 2;
}

Result<int> Quarter(int x) {
  MGARDP_ASSIGN_OR_RETURN(int h, Half(x));
  MGARDP_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

Status CheckQuarter(int x) {
  MGARDP_RETURN_NOT_OK(Quarter(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3, second Half fails
  EXPECT_FALSE(Quarter(3).ok());
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_TRUE(CheckQuarter(8).ok());
  EXPECT_FALSE(CheckQuarter(5).ok());
}

}  // namespace
}  // namespace mgardp
