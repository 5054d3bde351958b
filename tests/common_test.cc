#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/deadline.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace fgro {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllFactoryCodesDistinct) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(),  Status::NotFound("").code(),
      Status::OutOfRange("").code(),       Status::FailedPrecondition("").code(),
      Status::ResourceExhausted("").code(), Status::DeadlineExceeded("").code(),
      Status::Unavailable("").code(),       Status::Internal("").code(),
      Status::DataLoss("").code()};
  EXPECT_EQ(codes.size(), 9u);
}

TEST(StatusTest, DataLossCarriesCodeAndName) {
  Status s = Status::DataLoss("truncated trace");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(s.ToString(), "DataLoss: truncated trace");
}

TEST(StatusTest, UnavailableCarriesCodeAndName) {
  Status s = Status::Unavailable("model server outage");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(s.ToString(), "Unavailable: model server outage");
}

TEST(DeadlineTest, DefaultIsInfiniteAndNeverExpires) {
  Deadline deadline;
  EXPECT_TRUE(deadline.infinite());
  EXPECT_FALSE(deadline.expired());
  EXPECT_TRUE(std::isinf(deadline.remaining_seconds()));
  EXPECT_TRUE(deadline.Check("solve").ok());
  EXPECT_TRUE(Deadline::Infinite().infinite());
}

TEST(DeadlineTest, FakeClockDrivesExpiry) {
  double now = 100.0;
  Deadline deadline = Deadline::After(5.0, [&now] { return now; });
  EXPECT_FALSE(deadline.infinite());
  EXPECT_FALSE(deadline.expired());
  EXPECT_DOUBLE_EQ(deadline.remaining_seconds(), 5.0);
  now = 104.9;
  EXPECT_FALSE(deadline.expired());
  EXPECT_TRUE(deadline.Check("solve").ok());
  now = 105.0;
  EXPECT_TRUE(deadline.expired());
  EXPECT_DOUBLE_EQ(deadline.remaining_seconds(), 0.0);
  Status s = deadline.Check("ipa row");
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.message().find("ipa row"), std::string::npos);
}

TEST(DeadlineTest, ZeroAndNegativeBudgetsExpireImmediately) {
  double now = 50.0;
  auto clock = [&now] { return now; };
  EXPECT_TRUE(Deadline::After(0.0, clock).expired());
  // Negative budgets clamp to zero instead of expiring in the past's past.
  EXPECT_TRUE(Deadline::After(-3.0, clock).expired());
  EXPECT_DOUBLE_EQ(Deadline::After(-3.0, clock).remaining_seconds(), 0.0);
}

TEST(DeadlineTest, SteadyClockOverloadMovesForward) {
  Deadline deadline = Deadline::After(3600.0);
  EXPECT_FALSE(deadline.infinite());
  EXPECT_FALSE(deadline.expired());  // an hour from now is not yet here
  EXPECT_GT(deadline.remaining_seconds(), 3500.0);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

Status FailingHelper() { return Status::Internal("boom"); }
Status UsesReturnIfError() {
  FGRO_RETURN_IF_ERROR(FailingHelper());
  return Status::OK();
}

TEST(ResultTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kInternal);
}

Result<int> ProduceValue(bool fail) {
  if (fail) return Status::Unavailable("no value today");
  return 7;
}

Result<int> UsesAssignOrReturn(bool fail) {
  FGRO_ASSIGN_OR_RETURN(int x, ProduceValue(fail));
  FGRO_ASSIGN_OR_RETURN(auto y, ProduceValue(false));
  return x + y;
}

TEST(ResultTest, AssignOrReturnUnwrapsValue) {
  Result<int> r = UsesAssignOrReturn(false);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 14);
}

TEST(ResultTest, AssignOrReturnPropagatesError) {
  Result<int> r = UsesAssignOrReturn(true);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.status().message(), "no value today");
}

Result<std::vector<int>> ProduceVector() {
  return std::vector<int>{1, 2, 3};
}

Result<int> AssignsToExisting() {
  std::vector<int> v;
  FGRO_ASSIGN_OR_RETURN(v, ProduceVector());  // plain lhs, no declaration
  return static_cast<int>(v.size());
}

TEST(ResultTest, AssignOrReturnAssignsToExistingVariable) {
  Result<int> r = AssignsToExisting();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 3);
}

TEST(MathTest, BasicAggregates) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Sum(v), 10.0);
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Min(v), 1.0);
  EXPECT_DOUBLE_EQ(Max(v), 4.0);
  EXPECT_NEAR(StdDev(v), 1.2909944, 1e-6);
}

TEST(MathTest, EmptyVectorsAreSafe) {
  std::vector<double> v;
  EXPECT_DOUBLE_EQ(Mean(v), 0.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 0.0);
  EXPECT_DOUBLE_EQ(PearsonCorrelation(v, v), 0.0);
}

TEST(MathTest, PercentileInterpolates) {
  std::vector<double> v = {10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 30.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 20.0);
  EXPECT_DOUBLE_EQ(Median(v), 30.0);
}

TEST(MathTest, PercentileUnsortedInput) {
  std::vector<double> v = {50, 10, 40, 20, 30};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 30.0);
}

TEST(MathTest, PearsonPerfectCorrelation) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> b = {2, 4, 6, 8};
  EXPECT_NEAR(PearsonCorrelation(a, b), 1.0, 1e-12);
  std::vector<double> c = {8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(a, c), -1.0, 1e-12);
}

TEST(MathTest, PearsonDegenerateSeries) {
  std::vector<double> a = {1, 1, 1};
  std::vector<double> b = {1, 2, 3};
  EXPECT_DOUBLE_EQ(PearsonCorrelation(a, b), 0.0);
}

TEST(MathTest, ClampAndLog1p) {
  EXPECT_DOUBLE_EQ(Clamp(5, 0, 3), 3.0);
  EXPECT_DOUBLE_EQ(Clamp(-1, 0, 3), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(2, 0, 3), 2.0);
  EXPECT_DOUBLE_EQ(Log1pSafe(-5.0), 0.0);
  EXPECT_NEAR(Log1pSafe(std::exp(1.0) - 1.0), 1.0, 1e-12);
}

TEST(MathTest, HistogramCountsAndClamps) {
  std::vector<double> v = {0.1, 0.2, 0.9, -1.0, 2.0};
  std::vector<int> h = Histogram(v, 0.0, 1.0, 2);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0] + h[1], 5);  // out-of-range values clamp into end bins
  EXPECT_EQ(h[0], 3);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    int64_t x = rng.UniformInt(-2, 5);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 5);
  }
}

TEST(RngTest, UniformMeanRoughlyCentered) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) sum += rng.Uniform(0.0, 1.0);
  EXPECT_NEAR(sum / 20000, 0.5, 0.02);
}

TEST(RngTest, LogNormalIsPositive) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.LogNormal(0.0, 2.0), 0.0);
  }
}

TEST(RngTest, ZipfPrefersEarlyCategories) {
  Rng rng(9);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 10000; ++i) counts[static_cast<size_t>(rng.Zipf(5, 1.0))]++;
  EXPECT_GT(counts[0], counts[4]);
  EXPECT_GT(counts[0], 2000);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(13);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.Categorical(w), 1);
}

TEST(RngTest, ForkDiverges) {
  Rng a(21);
  Rng b = a.Fork();
  bool differ = false;
  for (int i = 0; i < 10; ++i) {
    if (a.NextUint64() != b.NextUint64()) differ = true;
  }
  EXPECT_TRUE(differ);
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds());
  double t1 = sw.ElapsedSeconds();
  sw.Restart();
  EXPECT_LE(sw.ElapsedSeconds(), t1 + 1.0);
}

TEST(MixSeedTest, DeterministicAndStreamSeparated) {
  EXPECT_EQ(MixSeed(5, 0), MixSeed(5, 0));
  // Adjacent stream ids and adjacent base seeds land far apart; the
  // resulting Rng streams must not be correlated in their first draw.
  std::set<uint64_t> seeds;
  for (uint64_t job = 0; job < 64; ++job) seeds.insert(MixSeed(5, job));
  EXPECT_EQ(seeds.size(), 64u);
  EXPECT_NE(MixSeed(5, 1), MixSeed(6, 0));
  Rng a(MixSeed(5, 1)), b(MixSeed(5, 2));
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(pool.Submit([&count] { ++count; }));
    }
    pool.Join();
    EXPECT_FALSE(pool.Submit([&count] { ++count; }));  // closed
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, JoinIsIdempotentAndDestructorJoins) {
  std::atomic<int> count{0};
  ThreadPool pool(2);
  for (int i = 0; i < 10; ++i) pool.Submit([&count] { ++count; });
  pool.Join();
  pool.Join();
  EXPECT_EQ(count.load(), 10);
}

TEST(BoundedQueueTest, PriorityLaneDrainsFirstFifoWithin) {
  BoundedPriorityQueue<int> queue(8, 2);
  EXPECT_TRUE(queue.TryPush(10, /*lane=*/1));
  EXPECT_TRUE(queue.TryPush(11, /*lane=*/1));
  EXPECT_TRUE(queue.TryPush(1, /*lane=*/0));
  EXPECT_TRUE(queue.TryPush(2, /*lane=*/0));
  int v = 0;
  ASSERT_TRUE(queue.Pop(&v));
  EXPECT_EQ(v, 1);  // lane 0 preempts the earlier lane-1 items
  ASSERT_TRUE(queue.Pop(&v));
  EXPECT_EQ(v, 2);
  ASSERT_TRUE(queue.Pop(&v));
  EXPECT_EQ(v, 10);  // then lane 1, in FIFO order
  ASSERT_TRUE(queue.Pop(&v));
  EXPECT_EQ(v, 11);
}

TEST(BoundedQueueTest, TryPushShedsAtCapacityAcrossLanes) {
  BoundedPriorityQueue<int> queue(2, 2);
  EXPECT_TRUE(queue.TryPush(1, 0));
  EXPECT_TRUE(queue.TryPush(2, 1));
  // The bound covers BOTH lanes: priority traffic cannot bypass it.
  EXPECT_FALSE(queue.TryPush(3, 0));
  EXPECT_FALSE(queue.TryPush(3, 1));
  EXPECT_EQ(queue.size(), 2u);
  int v = 0;
  ASSERT_TRUE(queue.Pop(&v));
  EXPECT_TRUE(queue.TryPush(3, 0));  // space freed, admission resumes
}

TEST(BoundedQueueTest, CloseDrainsRemainderThenUnblocksPop) {
  BoundedPriorityQueue<int> queue(4);
  queue.TryPush(7);
  queue.Close();
  EXPECT_FALSE(queue.TryPush(8));  // closed: no new admissions
  int v = 0;
  EXPECT_TRUE(queue.Pop(&v));  // ...but the remainder still drains
  EXPECT_EQ(v, 7);
  EXPECT_FALSE(queue.Pop(&v));  // closed and empty: consumers exit
}

TEST(BoundedQueueTest, ManyProducersManyConsumersLoseNothing) {
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 500;
  BoundedPriorityQueue<int> queue(16, 2);
  std::atomic<long> sum{0};
  std::atomic<int> popped{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      int v = 0;
      while (queue.Pop(&v)) {
        sum += v;
        ++popped;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        // Spin on the bounded queue: production must not drop items.
        while (!queue.TryPush(value, value % 2)) std::this_thread::yield();
      }
    });
  }
  for (size_t t = kConsumers; t < threads.size(); ++t) threads[t].join();
  queue.Close();
  for (int t = 0; t < kConsumers; ++t) threads[static_cast<size_t>(t)].join();
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(LoggingTest, ConcurrentLinesNeverTear) {
  // Capture stderr and hammer the logger from two threads; every captured
  // line must be exactly one writer's line, never an interleaving.
  std::ostringstream captured;
  std::streambuf* old = std::cerr.rdbuf(captured.rdbuf());
  constexpr int kLines = 200;
  auto writer = [](char tag) {
    for (int i = 0; i < kLines; ++i) {
      FGRO_LOG(kInfo) << "tag=" << tag << " payload-" << tag << tag << tag;
    }
  };
  std::thread a(writer, 'A'), b(writer, 'B');
  a.join();
  b.join();
  std::cerr.rdbuf(old);

  std::istringstream in(captured.str());
  std::string line;
  int total = 0;
  while (std::getline(in, line)) {
    ++total;
    const bool is_a = line.find("tag=A payload-AAA") != std::string::npos;
    const bool is_b = line.find("tag=B payload-BBB") != std::string::npos;
    EXPECT_TRUE(is_a != is_b) << "torn log line: " << line;
  }
  EXPECT_EQ(total, 2 * kLines);
}

}  // namespace
}  // namespace fgro
