// Continuous telemetry: series sampler, SLO watchdog, and engine profiler.
//
// The load-bearing properties:
//   * Determinism — two same-seed soak runs export byte-identical series
//     and metrics JSON (wall-clock never leaks into the registry).
//   * Bounded memory — rings hold at most `capacity` points no matter how
//     long the run; overwritten points are counted, not silently lost.
//   * The watchdog is evidence-only: arming rules never perturbs the
//     simulation, an empty watchdog is a strict no-op, and a rule that
//     stays in violation fires once per episode, not once per stride.
//   * A breach surfaces loudly in the soak report with the breaching
//     window identified.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "trace/series.h"
#include "trace/slo.h"
#include "trace/trace.h"
#include "workload/soak.h"

namespace sprite::trace {
namespace {

using sim::Time;

wl::SoakOptions quick_soak() {
  wl::SoakOptions opts;
  opts.workstations = 6;
  opts.seed = 1;  // seed 1 @ 16 users generates sessions inside 45 minutes
  opts.sessions.users = 16;
  opts.sessions.horizon = Time::minutes(45);
  opts.faults = false;  // coverage comes from the bench shapes; keep CI fast
  return opts;
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(SeriesTest, SameSeedRunsExportByteIdenticalSeriesAndMetrics) {
  std::string series[2], metrics[2];
  for (int i = 0; i < 2; ++i) {
    wl::SoakHarness harness(quick_soak());
    harness.run();
    series[i] = harness.sampler().series_json();
    metrics[i] = harness.cluster().sim().trace().metrics_json();
  }
  EXPECT_EQ(series[0], series[1]);
  EXPECT_EQ(metrics[0], metrics[1]);
  // Sanity: the export actually carries the standard curve set.
  EXPECT_GE(wl::SoakHarness(quick_soak()).sampler().tracked(), 10u);
}

TEST(SeriesTest, ArmingNonBreachingRulesDoesNotPerturbTheRun) {
  // Rules only read the registry, so a watchdog with rules that never fire
  // must leave the simulation — and therefore the series bytes — unchanged
  // relative to an armed-but-empty watchdog.
  wl::SoakOptions with_rules = quick_soak();
  with_rules.slo_rules.push_back({.name = "evict_p99",
                                  .metric = "ls.eviction.latency_ms",
                                  .agg = SloRule::Agg::kWindowP99,
                                  .cmp = SloRule::Cmp::kLt,
                                  .threshold = 1e12,
                                  .window = Time::hours(1)});

  wl::SoakHarness empty(quick_soak());
  const wl::SoakReport empty_report = empty.run();
  wl::SoakHarness armed(with_rules);
  const wl::SoakReport armed_report = armed.run();

  EXPECT_EQ(empty.sampler().series_json(), armed.sampler().series_json());
  EXPECT_EQ(empty.cluster().sim().trace().counter_total(
                "sim.engine.event.fired"),
            armed.cluster().sim().trace().counter_total(
                "sim.engine.event.fired"));
  EXPECT_TRUE(empty_report.slo_ok());
  EXPECT_TRUE(armed_report.slo_ok());
  EXPECT_EQ(empty.cluster().sim().trace().counter_total("slo.breach.fired"),
            0);
}

// ---------------------------------------------------------------------------
// Bounded memory (sampler driven directly off a fake clock: a simulated
// week at a 1-minute stride is ~10k samples, far past a small ring)
// ---------------------------------------------------------------------------

TEST(SeriesTest, RingStaysBoundedUnderASimulatedWeek) {
  std::int64_t now_us = 0;
  Registry tr([&] { return now_us; });
  Counter& work = tr.counter("test.work.done");

  SeriesSampler::Options sopts;
  sopts.stride = Time::minutes(1);
  sopts.capacity = 64;
  SeriesSampler sampler(tr, sopts);
  sampler.track({"test.work.done", SeriesKind::kCounterRate});
  sampler.track({"test.work.done", SeriesKind::kCounterTotal});

  const std::int64_t kWeekStrides = 7 * 24 * 60;  // 10080
  for (std::int64_t i = 0; i < kWeekStrides; ++i) {
    now_us += sopts.stride.us();
    work.inc(3);
    sampler.sample();
  }

  EXPECT_EQ(sampler.samples_taken(), kWeekStrides);
  EXPECT_EQ(sampler.points("test.work.done:rate").size(), sopts.capacity);
  EXPECT_EQ(sampler.points("test.work.done:total").size(), sopts.capacity);
  EXPECT_EQ(sampler.times_ms().size(), sopts.capacity);
  // Every overwritten point is accounted: (samples - capacity) per series.
  EXPECT_EQ(sampler.points_dropped(),
            2 * (kWeekStrides - static_cast<std::int64_t>(sopts.capacity)));

  // The retained window is the newest `capacity` samples, oldest first.
  const auto rate = sampler.points("test.work.done:rate");
  for (double p : rate) EXPECT_DOUBLE_EQ(p, 3.0);
  const auto total = sampler.points("test.work.done:total");
  EXPECT_DOUBLE_EQ(total.back(), 3.0 * static_cast<double>(kWeekStrides));
  EXPECT_DOUBLE_EQ(total.front(),
                   3.0 * static_cast<double>(kWeekStrides -
                                             sopts.capacity + 1));
  const auto t = sampler.times_ms();
  EXPECT_LT(t.front(), t.back());
}

TEST(SeriesTest, HistogramSeriesUsePerStrideDeltas) {
  std::int64_t now_us = 0;
  Registry tr([&] { return now_us; });
  auto& h = tr.histogram("test.latency.ms", default_latency_bounds_ms());

  SeriesSampler::Options sopts;
  sopts.stride = Time::minutes(1);
  SeriesSampler sampler(tr, sopts);
  sampler.track({"test.latency.ms", SeriesKind::kHistP99});
  sampler.track({"test.latency.ms", SeriesKind::kHistRate});

  // Stride 1: a burst of slow samples. Stride 2: quiet. The p99 series must
  // reflect each stride alone, not the cumulative histogram.
  now_us += sopts.stride.us();
  for (int i = 0; i < 100; ++i) h.record(900.0);
  sampler.sample();
  now_us += sopts.stride.us();
  sampler.sample();

  const auto p99 = sampler.points("test.latency.ms:p99");
  ASSERT_EQ(p99.size(), 2u);
  EXPECT_GT(p99[0], 500.0);   // the burst stride sees the slow samples
  EXPECT_EQ(p99[1], 0.0);     // the quiet stride sees none
  const auto rate = sampler.points("test.latency.ms:hist_rate");
  ASSERT_EQ(rate.size(), 2u);
  EXPECT_DOUBLE_EQ(rate[0], 100.0);
  EXPECT_DOUBLE_EQ(rate[1], 0.0);
}

// ---------------------------------------------------------------------------
// Watchdog semantics
// ---------------------------------------------------------------------------

TEST(SloTest, ArmedButEmptyWatchdogIsANoOp) {
  std::int64_t now_us = 0;
  Registry tr([&] { return now_us; });
  SloWatchdog dog(tr, Time::minutes(1));
  for (int i = 0; i < 100; ++i) {
    now_us += Time::minutes(1).us();
    dog.evaluate();
  }
  EXPECT_TRUE(dog.ok());
  EXPECT_EQ(dog.breaches().size(), 0u);
  EXPECT_EQ(tr.counter_total("slo.rule.evaluated"), 0);
  EXPECT_EQ(tr.counter_total("slo.breach.fired"), 0);
  EXPECT_EQ(dog.report(), "");
}

TEST(SloTest, BreachFiresExactlyOncePerViolationEpisode) {
  std::int64_t now_us = 0;
  Registry tr([&] { return now_us; });
  Gauge& g = tr.gauge("test.queue.depth");
  SloWatchdog dog(tr, Time::minutes(1));
  dog.add_rule({.name = "depth",
                .metric = "test.queue.depth",
                .agg = SloRule::Agg::kGauge,
                .cmp = SloRule::Cmp::kLt,
                .threshold = 10.0});

  auto tick = [&] {
    now_us += Time::minutes(1).us();
    dog.evaluate();
  };

  g.set(5.0);
  tick();
  EXPECT_EQ(dog.breaches().size(), 0u);

  // Episode 1: five strides in violation — the latch holds it to one breach.
  g.set(50.0);
  for (int i = 0; i < 5; ++i) tick();
  EXPECT_EQ(dog.breaches().size(), 1u);

  // A clean evaluation re-arms...
  g.set(5.0);
  tick();
  EXPECT_EQ(dog.breaches().size(), 1u);

  // ...so episode 2 fires exactly one more.
  g.set(99.0);
  for (int i = 0; i < 3; ++i) tick();
  EXPECT_EQ(dog.breaches().size(), 2u);
  EXPECT_EQ(tr.counter_total("slo.breach.fired"), 2);
}

TEST(SloTest, WindowedPercentileRuleSeesTheTrailingWindowOnly) {
  std::int64_t now_us = 0;
  Registry tr([&] { return now_us; });
  auto& h = tr.histogram("test.evict.ms", default_latency_bounds_ms());
  SloWatchdog dog(tr, Time::minutes(1));
  dog.add_rule({.name = "evict_p99",
                .metric = "test.evict.ms",
                .agg = SloRule::Agg::kWindowP99,
                .cmp = SloRule::Cmp::kLt,
                .threshold = 100.0,
                .window = Time::minutes(3)});

  auto tick = [&] {
    now_us += Time::minutes(1).us();
    dog.evaluate();
  };

  // A terrible stride breaches (once, latched)...
  for (int i = 0; i < 50; ++i) h.record(900.0);
  tick();
  ASSERT_EQ(dog.breaches().size(), 1u);
  const SloBreach& b = dog.breaches()[0];
  EXPECT_EQ(b.rule, "evict_p99");
  EXPECT_GT(b.observed, 100.0);
  EXPECT_GE(b.window_end.us(), b.window_start.us());
  EXPECT_NE(b.to_string().find("over ["), std::string::npos);

  // ...stays breached while the bad stride is inside the 3-stride window...
  tick();
  tick();
  EXPECT_EQ(dog.breaches().size(), 1u);

  // ...and once it slides out, the rule holds again (re-armed: a fresh
  // burst fires a second episode).
  tick();
  EXPECT_TRUE(dog.breaches().size() == 1u);
  for (int i = 0; i < 50; ++i) h.record(900.0);
  tick();
  EXPECT_EQ(dog.breaches().size(), 2u);
}

TEST(SloTest, InjectedBreachFailsTheSoakRunWithTheWindowIdentified) {
  wl::SoakOptions opts = quick_soak();
  // Guaranteed to breach: the workload always submits jobs, and the rule
  // demands it never does.
  opts.slo_rules.push_back({.name = "no_jobs_ever",
                            .metric = "workload.job.submitted",
                            .agg = SloRule::Agg::kTotal,
                            .cmp = SloRule::Cmp::kLt,
                            .threshold = 1.0});
  wl::SoakHarness harness(opts);
  const wl::SoakReport report = harness.run();

  EXPECT_FALSE(report.slo_ok());
  ASSERT_GE(report.slo_breaches, 1);
  ASSERT_FALSE(report.slo_problems.empty());
  EXPECT_NE(report.slo_problems[0].find("no_jobs_ever"), std::string::npos);
  EXPECT_NE(report.slo_problems[0].find("over ["), std::string::npos);
  EXPECT_NE(report.to_string().find("slo: "), std::string::npos);
  // The breach is also counted in the registry (the flight-recorder note it
  // drops is ring-buffered and long overwritten by the rest of the run, so
  // the durable evidence is the counter plus the report lines above).
  EXPECT_GE(harness.cluster().sim().trace().counter_total("slo.breach.fired"),
            1);
}

// ---------------------------------------------------------------------------
// Engine profiler
// ---------------------------------------------------------------------------

TEST(ProfilerTest, LabeledEventsAreCountedDeterministically) {
  sim::Simulator sim(42);
  int fired = 0;
  sim.after(Time::msec(1), "net_deliver", [&] { ++fired; });
  sim.after(Time::msec(2), "net_deliver", [&] { ++fired; });
  sim.after(Time::msec(3), [&] { ++fired; });  // unlabeled -> "other"
  sim.run();

  EXPECT_EQ(fired, 3);
  EXPECT_EQ(sim.profiler().events(), 3);
  Registry& tr = sim.trace();
  EXPECT_EQ(tr.counter_total("sim.engine.event.fired"), 3);
  EXPECT_EQ(tr.counter_total("sim.engine.fired.net_deliver"), 2);
  EXPECT_EQ(tr.counter_total("sim.engine.fired.other"), 1);
  EXPECT_GE(tr.gauge_total("sim.engine.queue.peak"), 3.0);

  // Counting is always on; timing is off by default and the hottest-first
  // table orders by fired count.
  const auto top = sim.profiler().top(10);
  ASSERT_FALSE(top.empty());
  EXPECT_STREQ(top[0].label, "net_deliver");
  EXPECT_EQ(top[0].fired, 2);
}

TEST(ProfilerTest, TimingModeAttributesWallClockPerLabel) {
  sim::Simulator sim(7);
  sim.profiler().set_timing(true);
  sim.profiler().begin_run();
  for (int i = 0; i < 64; ++i)
    sim.after(Time::msec(i), "cpu_slice", [] {
      volatile int sink = 0;
      for (int j = 0; j < 1000; ++j) sink = sink + j;
    });
  sim.run();
  sim.profiler().end_run();

  EXPECT_GT(sim.profiler().events_per_sec(), 0.0);
  const auto top = sim.profiler().top(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_STREQ(top[0].label, "cpu_slice");
  EXPECT_GT(top[0].total_ns, 0.0);
  EXPECT_GT(sim::EngineProfiler::percentile_ns(top[0], 0.99), 0.0);
  const std::string report = sim.profiler().report(4);
  EXPECT_NE(report.find("cpu_slice"), std::string::npos);
  EXPECT_NE(report.find("events/sec"), std::string::npos);
}

TEST(ProfilerTest, FlightDumpCarriesTheProfilerTable) {
  sim::Simulator sim(9);
  sim.after(Time::msec(1), "net_deliver", [] {});
  sim.run();
  // dump_flight writes to stderr; the hook itself must produce the table.
  const std::string table = sim.profiler().report(8);
  EXPECT_NE(table.find("engine self-profile"), std::string::npos);
  EXPECT_NE(table.find("net_deliver"), std::string::npos);
}

}  // namespace
}  // namespace sprite::trace
