#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/background.h"
#include "common/coding.h"
#include "common/crc32.h"
#include "common/random.h"
#include "common/slice.h"
#include "common/status.h"

namespace pitree {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllConstructorsMatchPredicates) {
  EXPECT_TRUE(Status::Corruption("").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("").IsIOError());
  EXPECT_TRUE(Status::Busy("").IsBusy());
  EXPECT_TRUE(Status::Deadlock("").IsDeadlock());
  EXPECT_TRUE(Status::Aborted("").IsAborted());
  EXPECT_TRUE(Status::NoSpace("").IsNoSpace());
  EXPECT_TRUE(Status::NotSupported("").IsNotSupported());
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto inner = []() { return Status::Busy("latched"); };
  auto outer = [&]() -> Status {
    PITREE_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsBusy());
}

TEST(SliceTest, CompareIsLexicographicUnsigned) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Prefix orders before extension.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  // High bytes compare as unsigned.
  char hi[] = {static_cast<char>(0xff)};
  EXPECT_GT(Slice(hi, 1).compare(Slice("a")), 0);
}

TEST(SliceTest, OperatorsAndAccessors) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_TRUE(s.starts_with("hel"));
  EXPECT_FALSE(s.starts_with("help"));
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
  EXPECT_TRUE(Slice("a") < Slice("b"));
  EXPECT_TRUE(Slice("a") != Slice("b"));
  EXPECT_TRUE(Slice("") == Slice());
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  PutFixed32(&buf, 0xDEADBEEFu);
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  Slice in(buf);
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(GetFixed16(&in, &a));
  ASSERT_TRUE(GetFixed32(&in, &b));
  ASSERT_TRUE(GetFixed64(&in, &c));
  EXPECT_EQ(a, 0xBEEF);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTripBoundaries) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (1ull << 32) - 1, 1ull << 32,
                                  std::numeric_limits<uint64_t>::max()};
  std::string buf;
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32RejectsTruncation) {
  std::string buf;
  PutVarint32(&buf, 1u << 30);
  buf.resize(buf.size() - 1);
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, LengthPrefixedSliceRoundTrip) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, "key");
  PutLengthPrefixedSlice(&buf, "");
  PutLengthPrefixedSlice(&buf, std::string(1000, 'x'));
  Slice in(buf);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "key");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 1000u);
}

TEST(CodingTest, LengthPrefixedSliceRejectsShortPayload) {
  std::string buf;
  PutVarint32(&buf, 100);
  buf += "short";
  Slice in(buf);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixedSlice(&in, &out));
}

TEST(Crc32Test, KnownVector) {
  // CRC-32C("123456789") = 0xE3069283
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32Test, ExtendMatchesOneShot) {
  const char* data = "hello world, this is a crc test";
  size_t n = strlen(data);
  uint32_t one = Crc32c(data, n);
  uint32_t two = Crc32cExtend(Crc32c(data, 10), data + 10, n - 10);
  EXPECT_EQ(one, two);
}

TEST(Crc32Test, MaskRoundTrip) {
  uint32_t crc = Crc32c("abc", 3);
  EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
  EXPECT_NE(MaskCrc(crc), crc);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
  }
}

TEST(RandomTest, SkewedInRangeAndSkewed) {
  Random r(7);
  const uint64_t n = 1000;
  int low_half = 0;
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = r.Skewed(n);
    ASSERT_LT(v, n);
    if (v < n / 2) ++low_half;
  }
  // A skewed distribution should strongly favor the low half.
  EXPECT_GT(low_half, 7000);
}

// BackgroundThread: the cases the completion-queue and maintenance tests,
// which run real clients on it, do not reach.

using Next = BackgroundThread::Next;
using std::chrono::microseconds;

// Spins until `pred` holds or 5 s pass; returns pred().
template <typename Pred>
bool Eventually(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return pred();
}

TEST(BackgroundThreadTest, WakeDuringStepRunsAnotherStep) {
  std::atomic<int> steps{0};
  std::atomic<bool> in_step{false};
  std::atomic<bool> release{false};
  BackgroundThread t([&] {
    if (steps.fetch_add(1) == 0) {
      in_step.store(true);
      while (!release.load()) std::this_thread::yield();
    }
    return Next::Sleep();
  });
  t.Start(microseconds(0));
  ASSERT_TRUE(Eventually([&] { return in_step.load(); }));
  t.Wake();  // arrives while the first step is running
  release.store(true);
  EXPECT_TRUE(Eventually([&] { return steps.load() == 2; }));
  // One wake buys one more step, not a spin.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(steps.load(), 2);
  t.Stop();
}

TEST(BackgroundThreadTest, NoWakeIsLost) {
  // Every post is followed by a Wake; a step observes the posts. If any
  // wake-up were lost the runner would sleep short of the last post.
  constexpr int kPosts = 20000;
  std::atomic<int> posted{0};
  std::atomic<int> seen{0};
  BackgroundThread t([&] {
    seen.store(posted.load());
    return Next::Sleep();
  });
  t.Start(microseconds(0));
  std::thread producer([&] {
    for (int i = 0; i < kPosts; ++i) {
      posted.fetch_add(1);
      t.Wake();
    }
  });
  producer.join();
  EXPECT_TRUE(Eventually([&] { return seen.load() == kPosts; }));
  t.Stop();
}

TEST(BackgroundThreadTest, StopBeforeStartAndStopTwiceAreNoOps) {
  std::atomic<int> steps{0};
  BackgroundThread t([&] {
    steps.fetch_add(1);
    return Next::Sleep();
  });
  t.Stop();  // never started
  t.Stop();
  EXPECT_EQ(steps.load(), 0);
  t.Start(microseconds(0));
  ASSERT_TRUE(Eventually([&] { return steps.load() == 1; }));
  t.Stop();
  t.Stop();  // already stopped
  EXPECT_EQ(steps.load(), 1);
}

TEST(BackgroundThreadTest, StepReturningStopEndsTheThread) {
  std::atomic<int> steps{0};
  BackgroundThread t([&] {
    steps.fetch_add(1);
    return Next::Stop();
  });
  t.Start(microseconds(0));
  ASSERT_TRUE(Eventually([&] { return steps.load() == 1; }));
  t.Wake();  // nobody is waiting any more
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(steps.load(), 1);
  t.Stop();  // still joins the ended thread and returns
  EXPECT_EQ(steps.load(), 1);
}

TEST(BackgroundThreadTest, StopCutsALongWaitShort) {
  std::atomic<int> steps{0};
  BackgroundThread t([&] {
    steps.fetch_add(1);
    return Next::After(std::chrono::seconds(10));
  });
  t.Start(microseconds(0));
  ASSERT_TRUE(Eventually([&] { return steps.load() == 1; }));
  auto t0 = std::chrono::steady_clock::now();
  t.Stop();  // the runner is 10 s into nothing
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(500));
  // The first wait, too, belongs to Stop.
  t.Start(std::chrono::seconds(10));
  t0 = std::chrono::steady_clock::now();
  t.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(500));
  EXPECT_EQ(steps.load(), 1);
}

}  // namespace
}  // namespace pitree
