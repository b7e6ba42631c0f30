#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "src/common/buffer.h"
#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace hovercraft {
namespace {

// ---------------------------------------------------------------------------
// Logging: lines name the source file, not the checkout's path
// ---------------------------------------------------------------------------

TEST(LoggingTest, LogLineCarriesBasenameAndNoPathOrLineNumber) {
  const LogLevel saved = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  testing::internal::CaptureStderr();
  HC_LOG_INFO("node %d up", 7);
  const std::string line = testing::internal::GetCapturedStderr();
  SetLogLevel(saved);
  EXPECT_EQ(line, "[I common_test.cc] node 7 up\n");
  EXPECT_EQ(line.find('/'), std::string::npos);
}

TEST(LoggingTest, SourceBasenameDropsEveryDirectory) {
  static_assert(SourceBasename("/a/b/c.cc")[0] == 'c');
  EXPECT_STREQ(SourceBasename("/abs/path/src/core/server.cc"), "server.cc");
  EXPECT_STREQ(SourceBasename("src/x.h"), "x.h");
  EXPECT_STREQ(SourceBasename("plain.cc"), "plain.cc");
}

TEST(LoggingDeathTest, CheckFailureNamesBasenameAndLine) {
  EXPECT_DEATH(HC_CHECK(1 + 1 == 3), "^CHECK failed: 1 \\+ 1 == 3 at common_test\\.cc:[0-9]+\n");
}

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing key");
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing key");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code : {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
                          StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
                          StatusCode::kFailedPrecondition, StatusCode::kUnavailable,
                          StatusCode::kResourceExhausted, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(InvalidArgumentError("bad"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, TakeValueMoves) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = r.TakeValue();
  EXPECT_EQ(v.size(), 3u);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng rng(4);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanApproximate) {
  Rng rng(8);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng a(9);
  Rng b = a.Fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------------------
// Zipfian
// ---------------------------------------------------------------------------

TEST(ZipfianTest, ValuesInRange) {
  ZipfianGenerator zipf(100, 0.99);
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(zipf.Next(rng), 100u);
  }
}

TEST(ZipfianTest, SkewsTowardSmallKeys) {
  ZipfianGenerator zipf(1000, 0.99);
  Rng rng(12);
  int head = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Next(rng) < 10) {
      ++head;
    }
  }
  // With theta=0.99 the 10 hottest of 1000 keys draw far more than their
  // uniform 1% share.
  EXPECT_GT(head, n / 5);
}

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

TEST(BufferTest, RoundTripScalars) {
  BufferWriter w;
  w.PutU8(0xAB);
  w.PutU16(0xBEEF);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutI64(-42);

  BufferReader r(w.bytes());
  uint8_t u8 = 0;
  uint16_t u16 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  ASSERT_TRUE(r.GetU8(u8).ok());
  ASSERT_TRUE(r.GetU16(u16).ok());
  ASSERT_TRUE(r.GetU32(u32).ok());
  ASSERT_TRUE(r.GetU64(u64).ok());
  ASSERT_TRUE(r.GetI64(i64).ok());
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xBEEF);
  EXPECT_EQ(u32, 0xDEADBEEFu);
  EXPECT_EQ(u64, 0x0123456789ABCDEFull);
  EXPECT_EQ(i64, -42);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BufferTest, RoundTripString) {
  BufferWriter w;
  w.PutString("hello world");
  w.PutString("");
  BufferReader r(w.bytes());
  std::string a;
  std::string b;
  ASSERT_TRUE(r.GetString(a).ok());
  ASSERT_TRUE(r.GetString(b).ok());
  EXPECT_EQ(a, "hello world");
  EXPECT_EQ(b, "");
}

TEST(BufferTest, UnderrunFails) {
  BufferWriter w;
  w.PutU16(7);
  BufferReader r(w.bytes());
  uint32_t v = 0;
  EXPECT_FALSE(r.GetU32(v).ok());
}

TEST(BufferTest, BadStringLengthFails) {
  BufferWriter w;
  w.PutU32(1000);  // declared length far beyond the buffer
  BufferReader r(w.bytes());
  std::string s;
  EXPECT_FALSE(r.GetString(s).ok());
}

TEST(BufferTest, Fnv1aStableAndSensitive) {
  EXPECT_EQ(Fnv1aHash("abc"), Fnv1aHash("abc"));
  EXPECT_NE(Fnv1aHash("abc"), Fnv1aHash("abd"));
  EXPECT_NE(Fnv1aHash("abc"), Fnv1aHash("abc", 1));
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

TEST(TypesTest, TimeHelpers) {
  EXPECT_EQ(Micros(3), 3000);
  EXPECT_EQ(Millis(2), 2'000'000);
  EXPECT_EQ(Seconds(1), 1'000'000'000);
}

TEST(TypesTest, ModeNames) {
  EXPECT_STREQ(ClusterModeName(ClusterMode::kUnreplicated), "UnRep");
  EXPECT_STREQ(ClusterModeName(ClusterMode::kVanillaRaft), "VanillaRaft");
  EXPECT_STREQ(ClusterModeName(ClusterMode::kHovercRaft), "HovercRaft");
  EXPECT_STREQ(ClusterModeName(ClusterMode::kHovercRaftPP), "HovercRaft++");
  EXPECT_STREQ(ReplierPolicyName(ReplierPolicy::kJbsq), "JBSQ");
}

}  // namespace
}  // namespace hovercraft
