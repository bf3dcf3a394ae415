// Unit tests for the discrete-event simulation engine.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/cpu.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/rng.h"

namespace sprite::sim {
namespace {

TEST(Time, ArithmeticAndConversions) {
  EXPECT_EQ(Time::msec(1).us(), 1000);
  EXPECT_EQ(Time::sec(1).us(), 1000000);
  EXPECT_EQ((Time::msec(2) + Time::msec(3)).ms(), 5.0);
  EXPECT_EQ((Time::sec(1) - Time::msec(250)).ms(), 750.0);
  EXPECT_DOUBLE_EQ(Time::sec(3) / Time::sec(2), 1.5);
  EXPECT_LT(Time::msec(1), Time::msec(2));
  EXPECT_EQ((Time::msec(10) * 2.5).ms(), 25.0);
}

TEST(Time, ToStringPicksSensibleUnits) {
  EXPECT_EQ(Time::usec(12).to_string(), "12us");
  EXPECT_EQ(Time::msec(12).to_string(), "12.000ms");
  EXPECT_EQ(Time::sec(2).to_string(), "2.000s");
}

TEST(EventQueue, FiresInTimeThenInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(Time::msec(5), [&] { order.push_back(2); });
  sim.at(Time::msec(1), [&] { order.push_back(1); });
  sim.at(Time::msec(5), [&] { order.push_back(3); });  // same time, later seq
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Time::msec(5));
}

TEST(EventQueue, CancelPreventsFiring) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.at(Time::msec(1), [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelAfterFiringIsNoop) {
  Simulator sim;
  int fired = 0;
  EventHandle h = sim.at(Time::msec(1), [&] { ++fired; });
  sim.run();
  EXPECT_FALSE(h.pending());
  h.cancel();
  EXPECT_EQ(fired, 1);
}

// A seeded mix of schedule, cancel and step fires in exactly the order of a
// naive std::map keyed by (time, seq), and pending() agrees with it.
TEST(EventQueue, RandomScheduleCancelRunMatchesReferenceModel) {
  Simulator sim;
  util::Rng rng(1234);
  std::map<std::pair<Time, std::uint64_t>, int> model;  // pending -> id
  std::vector<EventHandle> handles;
  std::vector<std::pair<Time, std::uint64_t>> keys;  // by id
  std::vector<int> fired;
  std::uint64_t seq = 0;
  for (int op = 0; op < 20000; ++op) {
    const double dice = rng.next_double();
    if (dice < 0.5) {
      // Coarse times so many events share a timestamp.
      const Time t = sim.now() + Time::usec(rng.uniform_int(0, 20) * 100);
      const int id = static_cast<int>(handles.size());
      handles.push_back(sim.at(t, [&fired, id] { fired.push_back(id); }));
      keys.emplace_back(t, seq++);
      model.emplace(keys.back(), id);
    } else if (dice < 0.7 && !handles.empty()) {
      const std::size_t id = rng.index(handles.size());
      handles[id].cancel();
      model.erase(keys[id]);
    } else {
      const bool stepped = sim.step();
      ASSERT_EQ(stepped, !model.empty());
      if (!stepped) continue;
      ASSERT_EQ(fired.back(), model.begin()->second);
      EXPECT_EQ(sim.now(), model.begin()->first.first);
      model.erase(model.begin());
    }
    if (op % 97 == 0) {
      for (std::size_t id = 0; id < handles.size(); ++id)
        ASSERT_EQ(handles[id].pending(), model.count(keys[id]) == 1) << id;
    }
  }
  std::vector<int> rest;
  for (const auto& [key, id] : model) rest.push_back(id);
  const std::size_t before = fired.size();
  sim.run();
  EXPECT_EQ(std::vector<int>(fired.begin() + static_cast<std::ptrdiff_t>(before),
                             fired.end()),
            rest);
}

TEST(EventQueue, StaleHandleToReusedSlotIsInert) {
  Simulator sim;
  int a = 0, b = 0, c = 0;
  EventHandle ha = sim.at(Time::msec(1), [&] { ++a; });
  ha.cancel();
  EventHandle hb = sim.at(Time::msec(2), [&] { ++b; });  // reuses a's slot
  EXPECT_FALSE(ha.pending());
  ha.cancel();
  EXPECT_TRUE(hb.pending());
  sim.run();
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 1);
  EventHandle hc = sim.at(Time::msec(3), [&] { ++c; });  // reuses it again
  EXPECT_FALSE(hb.pending());
  hb.cancel();  // fired handle, reused slot
  ha.cancel();
  EXPECT_TRUE(hc.pending());
  sim.run();
  EXPECT_EQ(c, 1);
}

TEST(EventQueue, HandlerCanCancelOtherEvents) {
  Simulator sim;
  std::vector<int> order;
  EventHandle later, same_time;
  sim.at(Time::msec(1), [&] {
    order.push_back(1);
    EXPECT_TRUE(later.pending());
    later.cancel();
    same_time.cancel();
  });
  same_time = sim.at(Time::msec(1), [&] { order.push_back(2); });
  later = sim.at(Time::msec(2), [&] { order.push_back(3); });
  sim.at(Time::msec(3), [&] { order.push_back(4); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 4}));
  EXPECT_FALSE(later.pending());
}

TEST(EventQueue, FiringEventIsNotPendingInItsOwnHandler) {
  Simulator sim;
  EventHandle self;
  bool checked = false;
  self = sim.at(Time::msec(1), [&] {
    EXPECT_FALSE(self.pending());
    self.cancel();  // no-op
    checked = true;
  });
  sim.run();
  EXPECT_TRUE(checked);
}

TEST(EventQueue, SizeCountsCancelledKeysUntilTheyReachTheFront) {
  EventQueue q;
  q.schedule(Time::msec(1), [] {});
  EventHandle h2 = q.schedule(Time::msec(2), [] {}).first;
  EventHandle h3 = q.schedule(Time::msec(3), [] {}).first;
  h2.cancel();
  EXPECT_EQ(q.size(), 3u);  // h2's key is still in the heap
  const EventQueue::Popped first = q.pop();
  EXPECT_EQ(first.at, Time::msec(1));
  q.release(first.slot);
  EXPECT_EQ(q.size(), 2u);
  // The cancelled key is dropped only once it reaches the front.
  EXPECT_EQ(q.next_time(), Time::msec(3));
  EXPECT_EQ(q.size(), 1u);
  q.release(q.pop().slot);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(h3.pending());
}

TEST(EventQueue, LargeAndMoveOnlyCapturesWork) {
  Simulator sim;
  std::array<std::int64_t, 32> big{};  // 256 bytes: past the inline buffer
  static_assert(sizeof(big) > EventFn::kInlineBytes);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::int64_t>(i);
  std::int64_t sum = 0;
  sim.after(Time::msec(1), [&sum, big] {
    for (std::int64_t v : big) sum += v;
  });
  auto owned = std::make_unique<int>(7);
  int seen = 0;
  sim.after(Time::msec(2), [&seen, p = std::move(owned)] { seen = *p; });
  auto big_owned = std::make_unique<int>(9);
  sim.after(Time::msec(3), [&seen, big, p = std::move(big_owned)] {
    seen += *p + static_cast<int>(big[1]);
  });
  sim.run();
  EXPECT_EQ(sum, 31 * 32 / 2);
  EXPECT_EQ(seen, 7 + 9 + 1);
}

TEST(EventQueue, CancelDestroysCapturedStateAtOnce) {
  Simulator sim;
  auto small = std::make_shared<int>(1);
  auto large = std::make_shared<int>(2);
  std::weak_ptr<int> small_w = small, large_w = large;
  std::array<char, 128> pad{};
  EventHandle hs = sim.after(Time::msec(1), [s = std::move(small)] { (void)s; });
  EventHandle hl = sim.after(Time::msec(1),
                             [l = std::move(large), pad] { (void)l, (void)pad; });
  EXPECT_FALSE(small_w.expired());
  hs.cancel();
  hl.cancel();
  EXPECT_TRUE(small_w.expired());
  EXPECT_TRUE(large_w.expired());
}

TEST(EventQueue, DestroyingTheSimulatorDestroysPendingCallables) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> w = token;
  {
    Simulator sim;
    sim.after(Time::msec(1), [t = std::move(token)] { (void)t; });
    sim.every(Time::msec(1), [] {});
  }
  EXPECT_TRUE(w.expired());
}

// A recurring event re-arms after its handler returns, under a fresh seq:
// work the handler schedules for the next tick's time fires before it.
TEST(Simulator, EveryReArmsAfterTheHandlerUnderAFreshSeq) {
  Simulator sim;
  sim.set_horizon(Time::sec(3));
  std::vector<std::string> order;
  sim.every(Time::sec(1), "tick", [&] {
    order.push_back("tick@" + std::to_string(sim.now().us() / 1000000));
    sim.after(Time::sec(1), [&] {
      order.push_back("work@" + std::to_string(sim.now().us() / 1000000));
    });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"tick@1", "work@2", "tick@2",
                                             "work@3", "tick@3", "work@4"}));
  EXPECT_EQ(sim.trace().counter_total("sim.engine.fired.tick"), 3);
}

TEST(Simulator, RunUntilAdvancesClockEvenWhenIdle) {
  Simulator sim;
  sim.run_until(Time::sec(3));
  EXPECT_EQ(sim.now(), Time::sec(3));
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) sim.after(Time::msec(1), chain);
  };
  sim.after(Time::msec(1), chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), Time::msec(5));
}

TEST(Simulator, EveryStopsAtHorizon) {
  Simulator sim;
  sim.set_horizon(Time::sec(10));
  int ticks = 0;
  sim.every(Time::sec(1), [&] { ++ticks; });
  sim.run();
  EXPECT_EQ(ticks, 10);
  EXPECT_EQ(sim.now(), Time::sec(10));
}

TEST(Simulator, ForkedRngStreamsAreIndependentAndDeterministic) {
  Simulator a(42), b(42);
  auto ra1 = a.fork_rng();
  auto ra2 = a.fork_rng();
  auto rb1 = b.fork_rng();
  EXPECT_EQ(ra1.next_u64(), rb1.next_u64());      // same seed, same stream
  EXPECT_NE(ra1.next_u64(), ra2.next_u64());      // distinct streams
}

TEST(Network, PointToPointDeliveryTimesReflectBandwidthAndLatency) {
  Simulator sim;
  Costs costs;
  Network net(sim, costs);
  Time delivered_at;
  HostId a = net.attach(nullptr);
  HostId b = net.attach([&](const Packet& p) {
    EXPECT_EQ(p.src, 0);
    EXPECT_EQ(p.bytes, 10000);
    delivered_at = sim.now();
  });
  net.send(a, b, 10000, {});
  sim.run();
  const Time expected =
      costs.wire_time(10000) + costs.net_latency;
  EXPECT_EQ(delivered_at, expected);
}

TEST(Network, SharedMediumSerializesConcurrentSenders) {
  Simulator sim;
  Costs costs;
  Network net(sim, costs);
  std::vector<Time> deliveries;
  HostId a = net.attach(nullptr);
  HostId b = net.attach(nullptr);
  HostId c = net.attach([&](const Packet&) { deliveries.push_back(sim.now()); });
  net.send(a, c, 100000, {});
  net.send(b, c, 100000, {});  // must queue behind the first transmission
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  const Time tx = costs.wire_time(100000);
  EXPECT_EQ(deliveries[0], tx + costs.net_latency);
  EXPECT_EQ(deliveries[1], tx + tx + costs.net_latency);
}

TEST(Network, MulticastReachesAllUpHostsExceptSender) {
  Simulator sim;
  Costs costs;
  Network net(sim, costs);
  int received = 0;
  HostId a = net.attach([&](const Packet&) { ++received; });
  net.attach([&](const Packet&) { ++received; });
  net.attach([&](const Packet&) { ++received; });
  HostId d = net.attach([&](const Packet&) { ++received; });
  net.set_host_up(d, false);
  net.multicast(a, 100, {});
  sim.run();
  EXPECT_EQ(received, 2);  // b and c only: sender and down host excluded
}

TEST(Network, DownDestinationDropsMessage) {
  Simulator sim;
  Costs costs;
  Network net(sim, costs);
  int received = 0;
  HostId a = net.attach(nullptr);
  HostId b = net.attach([&](const Packet&) { ++received; });
  net.set_host_up(b, false);
  net.send(a, b, 100, {});
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.messages_sent(), 1);  // it did occupy the wire
}

TEST(Cpu, KernelJobRunsToCompletion) {
  Simulator sim;
  Costs costs;
  Cpu cpu(sim, costs);
  Time done_at;
  cpu.submit(JobClass::kKernel, Time::msec(3), [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_EQ(done_at, Time::msec(3));
  EXPECT_EQ(cpu.busy_time(JobClass::kKernel), Time::msec(3));
}

TEST(Cpu, KernelPreemptsUser) {
  Simulator sim;
  Costs costs;
  Cpu cpu(sim, costs);
  Time user_done, kernel_done;
  cpu.submit(JobClass::kUser, Time::msec(50), [&] { user_done = sim.now(); });
  sim.run_until(Time::msec(10));
  cpu.submit(JobClass::kKernel, Time::msec(5), [&] { kernel_done = sim.now(); });
  sim.run();
  EXPECT_EQ(kernel_done, Time::msec(15));
  EXPECT_EQ(user_done, Time::msec(55));  // 50 ms of service, 5 ms stolen
}

TEST(Cpu, RoundRobinSharesCpuFairly) {
  Simulator sim;
  Costs costs;
  costs.quantum = Time::msec(10);
  Cpu cpu(sim, costs);
  Time a_done, b_done;
  cpu.submit(JobClass::kUser, Time::msec(30), [&] { a_done = sim.now(); });
  cpu.submit(JobClass::kUser, Time::msec(30), [&] { b_done = sim.now(); });
  sim.run();
  // Interleaved in 10 ms quanta: A finishes at 50 ms, B at 60 ms.
  EXPECT_EQ(a_done, Time::msec(50));
  EXPECT_EQ(b_done, Time::msec(60));
}

TEST(Cpu, CancelQueuedJobNeverRuns) {
  Simulator sim;
  Costs costs;
  Cpu cpu(sim, costs);
  bool ran = false;
  cpu.submit(JobClass::kUser, Time::msec(20), [] {});
  CpuJobId id = cpu.submit(JobClass::kUser, Time::msec(20), [&] { ran = true; });
  cpu.cancel(id);
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Cpu, CancelRunningJobStartsNext) {
  Simulator sim;
  Costs costs;
  Cpu cpu(sim, costs);
  Time b_done;
  CpuJobId a = cpu.submit(JobClass::kUser, Time::msec(100), [] {});
  cpu.submit(JobClass::kUser, Time::msec(10), [&] { b_done = sim.now(); });
  sim.run_until(Time::msec(5));
  cpu.cancel(a);
  sim.run();
  EXPECT_EQ(b_done, Time::msec(15));  // 5 ms wasted by A, then B's 10 ms
}

TEST(Cpu, ZeroDemandJobCompletesImmediately) {
  Simulator sim;
  Costs costs;
  Cpu cpu(sim, costs);
  bool done = false;
  cpu.submit(JobClass::kUser, Time::zero(), [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), Time::zero());
}

TEST(Cpu, LoadAverageTracksRunnableJobs) {
  Simulator sim;
  sim.set_horizon(Time::sec(900));
  Costs costs;
  Cpu cpu(sim, costs);
  cpu.start_load_sampling();
  // Two CPU-bound jobs serialize on the single CPU: both runnable until
  // t=300 s (2 x 150 s of demand).
  cpu.submit(JobClass::kUser, Time::sec(150), [] {});
  cpu.submit(JobClass::kUser, Time::sec(150), [] {});
  sim.run_until(Time::sec(120));
  EXPECT_NEAR(cpu.load_average(), 2.0, 0.1);
  sim.run();  // drains to the 900 s horizon
  EXPECT_NEAR(cpu.load_average(), 0.0, 0.05);  // decayed back towards idle
}

TEST(Cpu, LoadBiasAddsAnticipatedLoad) {
  Simulator sim;
  Costs costs;
  Cpu cpu(sim, costs);
  EXPECT_DOUBLE_EQ(cpu.load_average(), 0.0);
  cpu.set_load_bias(1.0);
  EXPECT_DOUBLE_EQ(cpu.load_average(), 1.0);
}

TEST(Cpu, UtilizationAccountsBothClasses) {
  Simulator sim;
  Costs costs;
  Cpu cpu(sim, costs);
  cpu.submit(JobClass::kUser, Time::msec(30), [] {});
  cpu.submit(JobClass::kKernel, Time::msec(20), [] {});
  sim.run();
  EXPECT_EQ(cpu.busy_time(JobClass::kUser), Time::msec(30));
  EXPECT_EQ(cpu.busy_time(JobClass::kKernel), Time::msec(20));
  EXPECT_NEAR(cpu.utilization(), 1.0, 1e-9);
}

}  // namespace
}  // namespace sprite::sim
