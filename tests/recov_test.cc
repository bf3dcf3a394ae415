// Host-monitor (src/recov/) unit tests: the up/suspect/down state machine
// driven purely by observable evidence — echo probes, exhausted RPC
// retransmissions, and boot-epoch jumps — plus call parking/resumption and
// the source-tree lints that keep simulator ground truth out of the kernel
// subsystems and hand-written self-referencing callback loops out of src/.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "kern/cluster.h"
#include "loadshare/wire.h"
#include "recov/monitor.h"
#include "rpc/rpc.h"
#include "sim/network.h"
#include "trace/trace.h"

namespace sprite {
namespace {

using kern::Cluster;
using recov::PeerState;
using sim::HostId;
using sim::Time;
using util::Status;

// Cuts / restores both directions of the a<->b link (partition of one pair).
void set_pair_up(Cluster& cluster, HostId a, HostId b, bool up) {
  cluster.net().set_link_up(a, b, up);
  cluster.net().set_link_up(b, a, up);
}

double counter(Cluster& cluster, const char* name, HostId h) {
  return static_cast<double>(cluster.sim().trace().counter(name, h).value());
}

// Declares a standing dependency of `a` on `b`, the way a kernel subsystem
// would (reservation, residual image, ...): interest makes the monitor probe.
void add_interest(Cluster& cluster, HostId a, HostId b) {
  cluster.host(a).monitor().add_interest_provider(
      [b](std::vector<HostId>& out) { out.push_back(b); });
}

TEST(HostMonitorTest, QuietClusterSendsNoProbes) {
  Cluster cluster({.num_workstations = 3, .num_file_servers = 1, .seed = 1});
  cluster.sim().run_until(Time::sec(30));
  for (HostId h = 0; h < static_cast<HostId>(cluster.num_hosts()); ++h)
    EXPECT_EQ(counter(cluster, "recov.echo.sent", h), 0)
        << "host " << h << " probed with no interest registered";
}

TEST(HostMonitorTest, SilentPeerAgesThroughSuspectToDown) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 2});
  const auto wss = cluster.workstations();
  const HostId a = wss[0], b = wss[1];
  add_interest(cluster, a, b);

  // Establish contact (records b's epoch), then cut the link without any
  // reboot: b goes silent but is still the same incarnation.
  cluster.sim().run_until(Time::sec(5));
  EXPECT_EQ(cluster.host(a).monitor().peer_state(b), PeerState::kUp);
  EXPECT_GE(counter(cluster, "recov.echo.sent", a), 1);

  set_pair_up(cluster, a, b, false);
  cluster.sim().run_until(Time::sec(30));
  EXPECT_EQ(cluster.host(a).monitor().peer_state(b), PeerState::kDown);
  EXPECT_GE(counter(cluster, "recov.peer.suspect", a), 1);
  EXPECT_EQ(counter(cluster, "recov.peer.down", a), 1);
  // Down peers are not probed: the echo counter stops growing.
  const double echoes = counter(cluster, "recov.echo.sent", a);
  cluster.sim().run_until(Time::sec(60));
  EXPECT_EQ(counter(cluster, "recov.echo.sent", a), echoes);
}

TEST(HostMonitorTest, BriefSilenceIsAFalseSuspicionNotADeath) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 3});
  const auto wss = cluster.workstations();
  const HostId a = wss[0], b = wss[1];
  add_interest(cluster, a, b);
  cluster.sim().run_until(Time::sec(5));

  // Silence shorter than recov_down_after: suspicion must clear on the
  // next successful probe, and no down verdict may fire.
  set_pair_up(cluster, a, b, false);
  cluster.sim().run_until(Time::sec(9));
  EXPECT_EQ(cluster.host(a).monitor().peer_state(b), PeerState::kSuspect);
  set_pair_up(cluster, a, b, true);
  cluster.sim().run_until(Time::sec(15));

  EXPECT_EQ(cluster.host(a).monitor().peer_state(b), PeerState::kUp);
  EXPECT_GE(counter(cluster, "recov.suspect.false", a), 1);
  EXPECT_EQ(counter(cluster, "recov.peer.down", a), 0);
}

TEST(HostMonitorTest, EpochJumpFiresDownThenRebooted) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 4});
  const auto wss = cluster.workstations();
  const HostId a = wss[0], b = wss[1];
  add_interest(cluster, a, b);

  std::vector<std::string> order;
  cluster.host(a).monitor().add_peer_down_observer(
      [&](HostId p) { if (p == b) order.push_back("down"); });
  cluster.host(a).monitor().add_peer_rebooted_observer(
      [&](HostId p) { if (p == b) order.push_back("rebooted"); });

  cluster.sim().run_until(Time::sec(5));
  // Crash + fast reboot: a never reaches a down verdict on its own; the
  // first post-reboot echo reply carries the new epoch, which must run the
  // down-recovery path for the old incarnation before announcing the new.
  cluster.crash_host(b);
  cluster.sim().run_until(cluster.sim().now() + Time::sec(1));
  cluster.reboot_host(b);
  cluster.sim().run_until(cluster.sim().now() + Time::sec(10));

  EXPECT_EQ(cluster.host(a).monitor().peer_state(b), PeerState::kUp);
  EXPECT_GE(counter(cluster, "recov.peer.rebooted", a), 1);
  ASSERT_GE(order.size(), 2u);
  EXPECT_EQ(order[0], "down");
  EXPECT_EQ(order[1], "rebooted");
}

TEST(HostMonitorTest, HealedPartitionReintegratesWithoutReboot) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 5});
  const auto wss = cluster.workstations();
  const HostId a = wss[0], b = wss[1];
  add_interest(cluster, a, b);

  int reintegrated = 0;
  cluster.host(a).monitor().add_peer_reintegrated_observer(
      [&](HostId p) { reintegrated += (p == b); });

  cluster.sim().run_until(Time::sec(5));
  set_pair_up(cluster, a, b, false);
  // Long enough for the down verdict.
  cluster.sim().run_until(Time::sec(30));
  ASSERT_EQ(cluster.host(a).monitor().peer_state(b), PeerState::kDown);
  set_pair_up(cluster, a, b, true);

  // Down peers are not probed, so re-detection needs traffic. One call is
  // given a single doubtful attempt against a down peer — and its reply
  // (same epoch) reintegrates b.
  bool done = false;
  cluster.host(a).rpc().call(
      b, rpc::ServiceId::kRecov, 0, nullptr,
      [&](util::Result<rpc::Reply>) { done = true; });
  cluster.run_until_done([&] { return done; });

  EXPECT_EQ(cluster.host(a).monitor().peer_state(b), PeerState::kUp);
  EXPECT_EQ(reintegrated, 1);
  EXPECT_EQ(counter(cluster, "recov.peer.rebooted", a), 0);
}

TEST(HostMonitorTest, ExhaustedCallParksUnderSuspicionAndResumesOnHeal) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 6});
  const auto wss = cluster.workstations();
  const HostId a = wss[0], b = wss[1];

  int handler_runs = 0;
  cluster.host(b).rpc().register_service(
      rpc::ServiceId::kLoadShare,
      [&](HostId, const rpc::Request&,
          std::function<void(rpc::Reply)> respond) {
        ++handler_runs;
        respond(rpc::Reply{Status::ok(), nullptr});
      });

  cluster.sim().run_until(Time::sec(2));
  set_pair_up(cluster, a, b, false);

  Status out(util::Err::kAgain);
  bool done = false;
  cluster.host(a).rpc().call(
      b, rpc::ServiceId::kLoadShare, 0, std::make_shared<ls::GossipReq>(),
      [&](util::Result<rpc::Reply> r) {
        out = r.is_ok() ? r->status : r.status();
        done = true;
      },
      rpc::CallOpts{.max_retries = 1});

  // Retries exhaust quickly; the monitor is only suspicious (no verdict
  // yet), so the call parks instead of failing.
  cluster.sim().run_until(Time::sec(7));
  EXPECT_FALSE(done);
  EXPECT_EQ(cluster.host(a).monitor().peer_state(b), PeerState::kSuspect);
  EXPECT_GE(counter(cluster, "rpc.call.parked", a), 1);

  // Heal before the down deadline: the next echo clears the suspicion and
  // the parked call retransmits and completes.
  set_pair_up(cluster, a, b, true);
  cluster.run_until_done([&] { return done; });
  EXPECT_TRUE(out.is_ok()) << out.to_string();
  EXPECT_EQ(handler_runs, 1);
  EXPECT_GE(counter(cluster, "rpc.call.unparked", a), 1);
}

TEST(HostMonitorTest, ParkedCallKeepsCausalContextAcrossResume) {
  // Same scenario as above, but traced: the call parks under suspicion,
  // resumes on heal, and the eventual server-side span must still be a
  // child of the original client call span in the original trace — parking
  // must not sever or re-root the causal chain.
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 6});
  const auto wss = cluster.workstations();
  const HostId a = wss[0], b = wss[1];
  trace::Registry& tr = cluster.sim().trace();
  tr.set_tracing(true);

  cluster.host(b).rpc().register_service(
      rpc::ServiceId::kLoadShare,
      [&](HostId, const rpc::Request&,
          std::function<void(rpc::Reply)> respond) {
        respond(rpc::Reply{Status::ok(), nullptr});
      });

  cluster.sim().run_until(Time::sec(2));
  set_pair_up(cluster, a, b, false);

  const trace::Context ctx = tr.new_trace();
  bool done = false;
  {
    trace::ScopedContext scope(tr, ctx);
    cluster.host(a).rpc().call(
        b, rpc::ServiceId::kLoadShare, 0, std::make_shared<ls::GossipReq>(),
        [&](util::Result<rpc::Reply> r) {
          EXPECT_TRUE(r.is_ok());
          done = true;
        },
        rpc::CallOpts{.max_retries = 1});
  }

  cluster.sim().run_until(Time::sec(7));
  EXPECT_FALSE(done);
  EXPECT_GE(counter(cluster, "rpc.call.parked", a), 1);

  set_pair_up(cluster, a, b, true);
  cluster.run_until_done([&] { return done; });
  EXPECT_GE(counter(cluster, "rpc.call.unparked", a), 1);

  trace::SpanId call_span = 0;
  std::uint64_t call_trace = 0;
  int serve_count = 0;
  trace::SpanId serve_parent = 0;
  std::uint64_t serve_trace = 0;
  for (const trace::Event& e : tr.events()) {
    if (e.phase != 'b' || e.cat != "rpc") continue;
    if (e.name == "call loadshare" && e.host == a) {
      call_span = e.id;
      call_trace = e.trace_id;
    }
    if (e.name == "serve loadshare" && e.host == b) {
      ++serve_count;
      serve_parent = e.parent;
      serve_trace = e.trace_id;
    }
  }
  ASSERT_NE(call_span, 0u);
  EXPECT_EQ(call_trace, ctx.trace_id);
  EXPECT_EQ(serve_count, 1);  // unpark retransmits; dedup still applies
  EXPECT_EQ(serve_parent, call_span);
  EXPECT_EQ(serve_trace, ctx.trace_id);
}

TEST(HostMonitorTest, DownVerdictFailsParkedCalls) {
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 7});
  const auto wss = cluster.workstations();
  const HostId a = wss[0], b = wss[1];

  cluster.sim().run_until(Time::sec(2));
  set_pair_up(cluster, a, b, false);

  Status out(util::Err::kAgain);
  bool done = false;
  cluster.host(a).rpc().call(
      b, rpc::ServiceId::kRecov, 0, nullptr,
      [&](util::Result<rpc::Reply> r) {
        out = r.is_ok() ? r->status : r.status();
        done = true;
      },
      rpc::CallOpts{.max_retries = 1});

  // Never heals: suspicion ages into a down verdict, which fails the
  // parked call rather than leaving it stalled forever.
  cluster.run_until_done([&] { return done; });
  EXPECT_EQ(out.err(), util::Err::kTimedOut);
  EXPECT_EQ(counter(cluster, "recov.peer.down", a), 1);
  EXPECT_EQ(cluster.host(a).monitor().peer_state(b), PeerState::kDown);
}

TEST(HostMonitorTest, OneWayLinkLossStillFeedsEvidence) {
  // Replies lost (b->a cut) looks exactly like a dead b to a — the monitor
  // must suspect and eventually declare b down even though a's requests
  // are arriving fine.
  Cluster cluster({.num_workstations = 2, .num_file_servers = 1, .seed = 8});
  const auto wss = cluster.workstations();
  const HostId a = wss[0], b = wss[1];
  add_interest(cluster, a, b);
  cluster.sim().run_until(Time::sec(5));

  cluster.net().set_link_up(b, a, false);
  cluster.sim().run_until(Time::sec(30));
  EXPECT_EQ(cluster.host(a).monitor().peer_state(b), PeerState::kDown);
  // b keeps hearing a's probes, so b never suspects a.
  EXPECT_EQ(cluster.host(b).monitor().peer_state(a), PeerState::kUp);
}

// ---------------------------------------------------------------------------
// Source-tree quarantine
// ---------------------------------------------------------------------------

// Simulator ground truth about liveness (Cluster::host_crashed,
// Network::set_host_up/host_up, Network::set_link_up/link_up) may only be
// consulted by the simulation substrate itself (src/sim/), the detection
// subsystem under test (src/recov/), and the Cluster/Host glue that
// implements crash_host (src/kern/cluster.*). Every other kernel subsystem
// must go through its host monitor.
TEST(GroundTruthQuarantineTest, NoLivenessQueriesOutsideQuarantine) {
  namespace fs = std::filesystem;
  const fs::path src = fs::path(SPRITE_SOURCE_DIR) / "src";
  ASSERT_TRUE(fs::exists(src)) << src;

  const std::vector<std::string> tokens = {
      "host_crashed", "set_host_up", "host_up", "set_link_up", "link_up"};
  std::vector<std::string> violations;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    const std::string rel = fs::relative(p, src).string();
    if (rel.rfind("sim/", 0) == 0) continue;    // substrate
    if (rel.rfind("recov/", 0) == 0) continue;  // the detector itself
    if (rel == "kern/cluster.cc" || rel == "kern/cluster.h") continue;
    const std::string ext = p.extension().string();
    if (ext != ".cc" && ext != ".h") continue;

    std::ifstream in(p);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      for (const auto& tok : tokens) {
        // Match call sites, not words in comments.
        const std::string call = tok + "(";
        if (line.find(call) != std::string::npos)
          violations.push_back(rel + ":" + std::to_string(lineno) + ": " +
                               line);
      }
    }
  }
  EXPECT_TRUE(violations.empty())
      << "ground-truth liveness consulted outside src/sim|recov|kern/cluster:"
      << [&] {
           std::ostringstream os;
           for (const auto& v : violations) os << "\n  " << v;
           return os.str();
         }();
}

// Callback loops go through util::async_loop (src/util/async.h), whose state
// is owned only by its pending continuations. The hand-written idiom it
// replaced, a default-constructed shared std::function assigned a closure
// that refers back to itself through a weak (or, by mistake, a strong)
// pointer, is one slip away from a shared_ptr cycle; keep it out of src/.
TEST(AsyncLoopLintTest, NoSelfReferencingStepClosures) {
  namespace fs = std::filesystem;
  const fs::path src = fs::path(SPRITE_SOURCE_DIR) / "src";
  ASSERT_TRUE(fs::exists(src)) << src;

  const std::regex weak_fn(R"(weak_ptr<\s*std::function)");
  const std::regex empty_shared_fn(R"(make_shared<\s*std::function<.*>>\(\))");
  std::vector<std::string> violations;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    const std::string ext = p.extension().string();
    if (ext != ".cc" && ext != ".h") continue;
    const std::string rel = fs::relative(p, src).string();

    std::ifstream in(p);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (std::regex_search(line, weak_fn) ||
          std::regex_search(line, empty_shared_fn))
        violations.push_back(rel + ":" + std::to_string(lineno) + ": " + line);
    }
  }
  EXPECT_TRUE(violations.empty())
      << "self-referencing step closure; use util::async_loop instead:"
      << [&] {
           std::ostringstream os;
           for (const auto& v : violations) os << "\n  " << v;
           return os.str();
         }();
}

}  // namespace
}  // namespace sprite
