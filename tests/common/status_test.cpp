#include "src/common/status.h"

#include <gtest/gtest.h>

namespace tfr {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), Code::kOk);
  EXPECT_EQ(s.to_string(), "Ok");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::not_found("x").code(), Code::kNotFound);
  EXPECT_EQ(Status::unavailable("x").code(), Code::kUnavailable);
  EXPECT_EQ(Status::aborted("x").code(), Code::kAborted);
  EXPECT_EQ(Status::timeout("x").code(), Code::kTimeout);
  EXPECT_EQ(Status::corruption("x").code(), Code::kCorruption);
  EXPECT_EQ(Status::invalid_argument("x").code(), Code::kInvalidArgument);
  EXPECT_EQ(Status::internal("x").code(), Code::kInternal);
  EXPECT_EQ(Status::closed("x").code(), Code::kClosed);
  EXPECT_EQ(Status::already_exists("x").code(), Code::kAlreadyExists);
  EXPECT_EQ(Status::not_found("no such row").message(), "no such row");
}

TEST(StatusTest, PredicatesMatchCodes) {
  EXPECT_TRUE(Status::not_found("").is_not_found());
  EXPECT_TRUE(Status::unavailable("").is_unavailable());
  EXPECT_TRUE(Status::aborted("").is_aborted());
  EXPECT_TRUE(Status::timeout("").is_timeout());
  EXPECT_FALSE(Status::ok().is_not_found());
}

TEST(StatusTest, ServerDownIsARetryableRefinementOfUnavailable) {
  const Status down = Status::server_down("rs1");
  EXPECT_EQ(down.code(), Code::kServerDown);
  EXPECT_TRUE(down.is_server_down());
  // Every retry loop keys on is_unavailable(), so it must hold for the
  // refinement too; the reverse must not, or a moved region would read as
  // proof of a crash.
  EXPECT_TRUE(down.is_unavailable());
  EXPECT_FALSE(Status::unavailable("region offline").is_server_down());
  EXPECT_FALSE(Status::wrong_epoch("stale").is_server_down());
  EXPECT_EQ(down.to_string(), "ServerDown: rs1");
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  EXPECT_EQ(Status::unavailable("server down").to_string(), "Unavailable: server down");
}

TEST(StatusTest, BoolConversion) {
  EXPECT_TRUE(static_cast<bool>(Status::ok()));
  EXPECT_FALSE(static_cast<bool>(Status::internal("boom")));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::not_found("gone"));
  ASSERT_FALSE(r.is_ok());
  EXPECT_TRUE(r.status().is_not_found());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, ReturnIfErrorMacroPropagates) {
  auto inner = [](bool fail) -> Status {
    return fail ? Status::timeout("slow") : Status::ok();
  };
  auto outer = [&](bool fail) -> Status {
    TFR_RETURN_IF_ERROR(inner(fail));
    return Status::internal("should not reach on failure");
  };
  EXPECT_TRUE(outer(true).is_timeout());
  EXPECT_EQ(outer(false).code(), Code::kInternal);
}

}  // namespace
}  // namespace tfr
