// Tests for the trace-driven workload subsystem (src/workload/): the binary
// trace format, the deterministic session generator, and the engine's
// record/replay round-trip on a live cluster.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "kern/cluster.h"
#include "loadshare/facility.h"
#include "proc/script.h"
#include "proc/table.h"
#include "sim/time.h"
#include "workload/audit.h"
#include "workload/engine.h"
#include "workload/session.h"
#include "workload/trace_file.h"

namespace sprite::wl {
namespace {

using kern::Cluster;
using sim::HostId;
using sim::Time;

// ---------------------------------------------------------------------------
// Trace format
// ---------------------------------------------------------------------------

std::vector<WorkloadEvent> sample_events() {
  return {
      {Time::zero(), EvKind::kSessionBegin, 0, 7, 0},
      {Time::msec(1), EvKind::kKeystroke, 0, 0, 0},
      {Time::msec(1), EvKind::kBatchSubmit, 3, 1500000, 0},
      {Time::sec(5), EvKind::kStorm, 2, 8, 2000000},
      {Time::hours(200), EvKind::kSessionEnd, 0, 7, 0},  // wide delta
  };
}

TEST(TraceFileTest, RoundTripsEventsAndSeed) {
  const auto evs = sample_events();
  const auto bytes = encode_trace(42, evs);
  auto parsed = decode_trace(bytes);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  EXPECT_EQ(parsed->seed, 42u);
  EXPECT_EQ(parsed->events, evs);
}

TEST(TraceFileTest, EmptyTraceRoundTrips) {
  const auto bytes = encode_trace(7, {});
  auto parsed = decode_trace(bytes);
  ASSERT_TRUE(parsed.is_ok());
  EXPECT_EQ(parsed->seed, 7u);
  EXPECT_TRUE(parsed->events.empty());
}

TEST(TraceFileTest, EncodingIsDeterministic) {
  EXPECT_EQ(encode_trace(9, sample_events()), encode_trace(9, sample_events()));
}

TEST(TraceFileTest, RejectsTruncationAtEveryLength) {
  const auto bytes = encode_trace(42, sample_events());
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(n));
    EXPECT_FALSE(decode_trace(cut).is_ok()) << "accepted " << n << " bytes";
  }
}

TEST(TraceFileTest, RejectsEverySingleBitFlip) {
  const auto bytes = encode_trace(42, sample_events());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto bad = bytes;
    bad[i] ^= 0x01;
    // Any flip must be caught: header flips break the magic, body and
    // footer flips break the checksum (or the sentinel/count).
    EXPECT_FALSE(decode_trace(bad).is_ok()) << "accepted flip at byte " << i;
  }
}

TEST(TraceFileTest, RejectsForeignMagicAndFutureFormat) {
  auto bytes = encode_trace(1, sample_events());
  auto bad = bytes;
  bad[0] = 'X';
  EXPECT_FALSE(decode_trace(bad).is_ok());
}

TEST(TraceFileTest, RejectsUnknownEventKind) {
  // Hand-build a body with an out-of-range kind, then re-seal the footer
  // with a valid checksum: decode must fail on the kind, not the checksum.
  TraceWriter w(5);
  w.add({Time::msec(2), EvKind::kKeystroke, 1, 0, 0});
  auto bytes = w.finish();
  // The kind byte of the single event: header(16) + varint delta(2000 -> 2
  // bytes) puts it at offset 18.
  ASSERT_EQ(bytes[18], static_cast<std::uint8_t>(EvKind::kKeystroke));
  bytes[18] = 0x7E;  // not a kind
  // Re-seal: recompute the checksum the writer would have produced.
  const auto body_end = bytes.size() - 17;
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < body_end; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  for (int i = 0; i < 8; ++i)
    bytes[body_end + 9 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(h >> (8 * i));
  EXPECT_FALSE(decode_trace(bytes).is_ok());
}

// ---------------------------------------------------------------------------
// Session generator
// ---------------------------------------------------------------------------

SessionSpec small_spec() {
  SessionSpec spec;
  spec.users = 12;
  spec.horizon = Time::hours(8);
  return spec;
}

TEST(GeneratorTest, StreamIsTimeOrderedAndBoundedByHorizon) {
  Generator gen(small_spec(), {0, 1, 2, 3}, 17);
  auto evs = gen.all();
  ASSERT_FALSE(evs.empty());
  for (std::size_t i = 1; i < evs.size(); ++i)
    ASSERT_GE(evs[i].at, evs[i - 1].at) << "out of order at " << i;
  // Sessions start before the horizon; their contents may run past it only
  // by one session length (the generator stops deciding at the horizon).
  int begins = 0;
  for (const auto& e : evs)
    if (e.kind == EvKind::kSessionBegin) {
      ++begins;
      EXPECT_LT(e.at, small_spec().horizon);
    }
  EXPECT_GT(begins, 12);  // several sessions per user over 8 h
}

TEST(GeneratorTest, SameSeedSameStreamDifferentSeedDifferent) {
  Generator a(small_spec(), {0, 1, 2, 3}, 99);
  Generator b(small_spec(), {0, 1, 2, 3}, 99);
  Generator c(small_spec(), {0, 1, 2, 3}, 100);
  const auto ea = a.all();
  EXPECT_EQ(ea, b.all());
  EXPECT_NE(ea, c.all());
}

TEST(GeneratorTest, UsersSitRoundRobinOnHosts) {
  Generator gen(small_spec(), {5, 9}, 3);
  for (const auto& e : gen.all())
    EXPECT_TRUE(e.host == 5 || e.host == 9);
}

TEST(GeneratorTest, EmitsAllEventKindsOverALongRun) {
  SessionSpec spec = small_spec();
  spec.horizon = Time::hours(48);
  spec.storm_per_session = 0.5;
  Generator gen(spec, {0, 1, 2, 3}, 23);
  std::array<int, kNumEvKinds> seen{};
  for (const auto& e : gen.all()) ++seen[static_cast<std::size_t>(e.kind)];
  for (std::size_t k = 0; k < kNumEvKinds; ++k)
    EXPECT_GT(seen[k], 0) << ev_kind_name(static_cast<EvKind>(k));
}

// ---------------------------------------------------------------------------
// Engine on a live cluster
// ---------------------------------------------------------------------------

SessionSpec engine_spec() {
  SessionSpec spec;
  spec.users = 8;
  spec.horizon = Time::hours(2);
  spec.batch_per_hour = 6.0;
  spec.storm_per_session = 0.2;
  return spec;
}

TEST(EngineTest, DrainsEveryJobToATerminalState) {
  Cluster cluster({.num_workstations = 6,
                   .num_file_servers = 1,
                   .seed = 5,
                   .horizon = Time::hours(4)});
  ls::Facility facility(cluster, ls::Arch::kCentral);
  Engine engine(cluster, &facility, {});
  engine.start(engine_spec(), 21);
  cluster.run_until_done([&] { return engine.drained(); });

  const auto sum = engine.summary();
  EXPECT_GT(sum.sessions_begun, 0);
  EXPECT_GT(sum.jobs_submitted, 0);
  EXPECT_EQ(sum.jobs_running, 0);
  EXPECT_EQ(sum.jobs_queued, 0);
  EXPECT_EQ(sum.storms_active, 0);
  EXPECT_GE(sum.events_total, 0);  // stream closed
  for (const auto& j : engine.jobs())
    EXPECT_TRUE(j.terminal()) << "job " << j.id << " not terminal";
  // Without faults every batch job must actually finish.
  EXPECT_EQ(sum.jobs_finished, sum.jobs_submitted);
}

TEST(EngineTest, RecordedTraceReplaysByteIdentically) {
  auto run = [](const std::vector<std::uint8_t>* replay_bytes) {
    Cluster cluster({.num_workstations = 6,
                     .num_file_servers = 1,
                     .seed = 5,
                     .horizon = Time::hours(4)});
    ls::Facility facility(cluster, ls::Arch::kCentral);
    Engine::Options opts;
    opts.record = true;
    Engine engine(cluster, &facility, opts);
    if (replay_bytes == nullptr) {
      engine.start(engine_spec(), 77);
    } else {
      auto parsed = decode_trace(*replay_bytes);
      EXPECT_TRUE(parsed.is_ok());
      engine.start_replay(std::move(*parsed));
    }
    cluster.run_until_done([&] { return engine.drained(); });
    return engine.take_recorded_trace();
  };

  const auto recorded = run(nullptr);
  ASSERT_FALSE(recorded.empty());
  EXPECT_EQ(run(&recorded), recorded);
  // And a freshly generated run with the same seed records the same bytes.
  EXPECT_EQ(run(nullptr), recorded);
}

TEST(EngineTest, RunsWithoutAFacility) {
  Cluster cluster({.num_workstations = 4,
                   .num_file_servers = 1,
                   .seed = 2,
                   .horizon = Time::hours(3)});
  Engine engine(cluster, nullptr, {});
  engine.start(engine_spec(), 13);
  cluster.run_until_done([&] { return engine.drained(); });
  const auto sum = engine.summary();
  EXPECT_EQ(sum.jobs_finished, sum.jobs_submitted);
}

// ---------------------------------------------------------------------------
// Incarnation audit failure branches
// ---------------------------------------------------------------------------

// Spawns a long computation on `home` and returns its pid.
proc::Pid spawn_burner(Cluster& cluster, HostId home) {
  proc::Pid pid = proc::kInvalidPid;
  cluster.host(home).procs().spawn(
      "/bin/burn", {}, [&](util::Result<proc::Pid> r) {
        EXPECT_TRUE(r.is_ok()) << r.status().to_string();
        if (r.is_ok()) pid = *r;
      });
  cluster.run_until_done([&] { return pid != proc::kInvalidPid; });
  return pid;
}

bool mentions(const AuditResult& r, const std::string& needle) {
  for (const auto& p : r.problems)
    if (p.find(needle) != std::string::npos) return true;
  return false;
}

TEST(AuditTest, FlagsLostJobsDuplicatesAndStaleIncarnations) {
  Cluster cluster({.num_workstations = 3, .num_file_servers = 1});
  proc::ScriptBuilder burn;
  burn.compute(Time::hours(1)).exit(0);
  ASSERT_TRUE(cluster.install_program("/bin/burn", burn.image()).is_ok());
  const HostId home = cluster.workstations()[0];
  const HostId other = cluster.workstations()[1];
  const proc::Pid dup = spawn_burner(cluster, home);
  const proc::Pid ghost = spawn_burner(cluster, home);

  // Clean state: one copy of each pid, every job terminal.
  Engine::JobRecord done;
  done.id = 1;
  done.home = home;
  done.pid = dup;
  done.state = Engine::JobRecord::State::kFinished;
  EXPECT_TRUE(audit_incarnations(cluster, {done}).ok());

  // A job still running when the audit runs was never accounted for.
  Engine::JobRecord running = done;
  running.id = 2;
  running.state = Engine::JobRecord::State::kRunning;
  AuditResult r = audit_incarnations(cluster, {done, running});
  EXPECT_EQ(r.lost, 1);
  EXPECT_EQ(r.duplicated, 0);
  EXPECT_TRUE(mentions(r, "job 2 "));

  // One pid resident on two running hosts.
  cluster.host(other).procs().install_and_resume(
      cluster.host(home).procs().find(dup));
  r = audit_incarnations(cluster, {done});
  EXPECT_EQ(r.lost, 0);
  EXPECT_EQ(r.duplicated, 1);
  EXPECT_TRUE(mentions(r, "pid " + std::to_string(dup) + " resident on 2"));

  // The home restarts `ghost` from a checkpoint: the resident copy still
  // carries the old epoch.
  auto bumped = cluster.host(home).procs().bump_incarnation(ghost);
  ASSERT_TRUE(bumped.is_ok());
  r = audit_incarnations(cluster, {done});
  EXPECT_EQ(r.duplicated, 2);
  EXPECT_TRUE(mentions(r, "pid " + std::to_string(ghost) + " on host" +
                              std::to_string(home) +
                              " carries stale incarnation 0 (home says " +
                              std::to_string(*bumped) + ")"));
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace sprite::wl
