// Unit tests for util: Status/Result, Rng, stats, Table, async_loop.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "util/async.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/table.h"

namespace sprite::util {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.err(), Err::kOk);
  EXPECT_EQ(s.to_string(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status s(Err::kNoEnt, "/a/b");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.to_string(), "NOENT: /a/b");
}

TEST(Result, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 7);
  EXPECT_EQ(r.err(), Err::kOk);
}

TEST(Result, HoldsError) {
  Result<int> r(Err::kBadF, "fd 3");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.err(), Err::kBadF);
  EXPECT_EQ(r.status().message(), "fd 3");
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformIntStaysInRange) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    auto v = r.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng r(3);
  bool seen[11] = {};
  for (int i = 0; i < 10000; ++i) seen[r.uniform_int(0, 10)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(11);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(r.exponential(2.5));
  EXPECT_NEAR(acc.mean(), 2.5, 0.05);
}

TEST(Rng, HyperexponentialMatchesZhouLifetimes) {
  // Calibration used by the policy experiment (E10): mean 1.5 s with a
  // heavy tail. Mixture: p=0.96 short jobs (mean 0.5s), long jobs mean 25.5s
  // -> overall mean = .96*.5 + .04*25.5 = 1.5 s.
  Rng r(13);
  Accumulator acc;
  for (int i = 0; i < 400000; ++i)
    acc.add(r.hyperexponential(0.96, 0.5, 25.5));
  EXPECT_NEAR(acc.mean(), 1.5, 0.1);
  EXPECT_GT(acc.stddev(), 3.0);  // much heavier-tailed than exponential
}

TEST(Rng, NormalMoments) {
  Rng r(17);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(r.normal(10.0, 3.0));
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 3.0, 0.05);
}

TEST(Rng, SampleIndicesDistinctAndInRange) {
  Rng r(19);
  auto idx = r.sample_indices(10, 4);
  ASSERT_EQ(idx.size(), 4u);
  for (auto i : idx) EXPECT_LT(i, 10u);
  for (std::size_t a = 0; a < idx.size(); ++a)
    for (std::size_t b = a + 1; b < idx.size(); ++b)
      EXPECT_NE(idx[a], idx[b]);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(23);
  Rng b = a.fork();
  // Streams differ from each other and from the parent's continuation.
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Accumulator, WelfordMatchesClosedForm) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
  EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Distribution, Quantiles) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) d.add(i);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 100.0);
  EXPECT_NEAR(d.median(), 50.0, 1.0);
  EXPECT_NEAR(d.quantile(0.9), 90.0, 1.0);
  EXPECT_NEAR(d.mean(), 50.5, 1e-9);
}

TEST(Distribution, EmptyIsZero) {
  Distribution d;
  EXPECT_EQ(d.count(), 0u);
  EXPECT_DOUBLE_EQ(d.median(), 0.0);
}

TEST(Table, FormatsAlignedGrid) {
  Table t({"host", "load"});
  t.add_row({"ws0", Table::num(0.25)});
  t.add_row({"fileserver", Table::num(1.5)});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| host       | load |"), std::string::npos);
  EXPECT_NE(s.find("| fileserver | 1.50 |"), std::string::npos);
}

TEST(AsyncLoop, SynchronousNextRunsStepsInOrder) {
  std::vector<std::size_t> steps;
  bool ended = false;
  async_loop([&](std::size_t i, auto next) {
    steps.push_back(i);
    if (i == 4) {
      ended = true;
      return;
    }
    next();
  });
  EXPECT_TRUE(ended);  // a synchronous loop finishes inside the call
  EXPECT_EQ(steps, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(AsyncLoop, DeferredNextRunsStepsInOrder) {
  sim::Simulator sim;
  std::vector<std::pair<std::size_t, std::int64_t>> steps;  // (i, now us)
  async_loop([&](std::size_t i, auto next) {
    steps.emplace_back(i, sim.now().us());
    if (i >= 3) return;
    sim.after(sim::Time::msec(10), [next] { next(); });
  });
  // Only step 0 ran so far; the rest wait on their completion events.
  ASSERT_EQ(steps.size(), 1u);
  sim.run();
  EXPECT_EQ(steps, (std::vector<std::pair<std::size_t, std::int64_t>>{
                       {0, 0}, {1, 10000}, {2, 20000}, {3, 30000}}));
}

TEST(AsyncLoop, EndsWhenBodyReturnsWithoutNext) {
  sim::Simulator sim;
  int runs = 0;
  async_loop([&](std::size_t i, auto next) {
    ++runs;
    // Step 2 schedules a completion that does not continue the loop.
    sim.after(sim::Time::msec(1), [i, next] {
      if (i < 2) next();
    });
  });
  sim.run();
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(sim.now(), sim::Time::msec(3));  // step 2's completion was last
}

TEST(AsyncLoop, StateIsFreedWhenTheLoopEnds) {
  sim::Simulator sim;
  auto sentinel = std::make_shared<int>(7);
  std::weak_ptr<int> watch = sentinel;
  async_loop([&sim, sentinel = std::move(sentinel)](std::size_t i,
                                                    auto next) {
    if (i >= 2) return;
    sim.after(sim::Time::msec(1), [next] { next(); });
  });
  EXPECT_FALSE(watch.expired());  // step 1 is pending and holds the state
  sim.run();
  EXPECT_TRUE(watch.expired());
}

TEST(AsyncLoop, StateIsFreedWhenThePendingNextIsDropped) {
  auto sentinel = std::make_shared<int>(7);
  std::weak_ptr<int> watch = sentinel;
  std::function<void()> pending;
  async_loop([&pending, sentinel = std::move(sentinel)](std::size_t,
                                                        auto next) {
    pending = next;  // a completion that will never fire
  });
  EXPECT_FALSE(watch.expired());
  pending = nullptr;  // e.g. the RPC it waited on was abandoned
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace sprite::util
