// E6 — host-selection architecture comparison (thesis Table 6.2, §6.3).
//
// Paper conclusions:
//   central server — fast, authoritative (no double grants), scales to
//                    thousands of hosts when updates come only from idle
//                    hosts [TL88]; single point of failure.
//   shared file    — simple but slow (uncacheable file traffic on every
//                    request) and racy; Sprite abandoned it.
//   probabilistic  — no central state, but stale vectors grant busy hosts.
//   multicast      — stateless and cheap per request, but every host pays
//                    for every query; scales to a few hundred hosts at most.
#include <cstdio>

#include "bench_util.h"
#include "loadshare/facility.h"
#include "util/stats.h"

using sprite::core::SpriteCluster;
using sprite::ls::Arch;
using sprite::sim::HostId;
using sprite::sim::Time;
using sprite::util::Table;

namespace {

struct ArchResult {
  double median_ms = 0;
  double grants_per_req = 0;
  std::int64_t bad_grants = 0;
  double msgs_per_request = 0;
  double net_util = 0;
};

ArchResult run_arch(Arch arch, int workstations, int requesters,
                    int requests_each) {
  SpriteCluster cluster({.workstations = workstations,
                         .seed = 29,
                         .selection = arch,
                         .horizon = Time::hours(4)});
  cluster.warm_up();

  sprite::util::Distribution latency;
  std::int64_t total_grants = 0;
  cluster.kernel().net().reset_stats();
  const std::int64_t msgs_before = cluster.kernel().net().messages_sent();

  int total_requests = 0;
  for (int round = 0; round < requests_each; ++round) {
    // Churn: a user sits down at one previously-idle workstation right
    // before the requests go out. Architectures with distributed state may
    // still believe it is idle (stale information -> bad grants).
    const int churn_idx =
        requesters + (round % (workstations - requesters));
    cluster.host(cluster.workstation(churn_idx)).note_user_input();
    for (int rq = 0; rq < requesters; ++rq) {
      const HostId who = cluster.workstation(rq);
      const Time t0 = cluster.sim().now();
      // Ask for a batch (as pmake would); wanting many hosts makes the
      // requester walk deep into its candidate list, where stale entries
      // lurk.
      auto hosts = cluster.request_idle_hosts(who, 6);
      latency.add((cluster.sim().now() - t0).ms());
      ++total_requests;
      total_grants += static_cast<std::int64_t>(hosts.size());
      cluster.run_for(Time::msec(500));
      for (auto h : hosts) cluster.release_host(who, h);
      cluster.run_for(Time::msec(500));
    }
  }

  ArchResult r;
  r.median_ms = latency.median();
  r.grants_per_req = static_cast<double>(total_grants) / total_requests;
  r.bad_grants = cluster.sim().trace().counter_total("ls.select.bad_grant");
  r.msgs_per_request =
      static_cast<double>(cluster.kernel().net().messages_sent() -
                          msgs_before) /
      total_requests;
  r.net_util = cluster.kernel().net().utilization();
  return r;
}

}  // namespace

int main() {
  bench::header(
      "E6: host-selection architectures (bench_selection_archs)",
      "central: fast + authoritative; shared file: slow, racy; "
      "probabilistic: stale grants; multicast: every host pays per query");

  for (int workstations : {12, 40}) {
    std::printf("--- %d workstations, 4 requesters, 5 rounds ---\n",
                workstations);
    // msgs/req counts ALL traffic in the window divided by requests — for
    // the distributed architectures that includes their continuous
    // background cost (gossip, load-file updates), which is exactly the
    // overhead Theimer & Lantz charge them with.
    Table t({"architecture", "median ms", "grants/req", "bad grants",
             "msgs/req (incl. background)"});
    for (Arch arch : {Arch::kCentral, Arch::kSharedFile, Arch::kProbabilistic,
                      Arch::kMulticast}) {
      auto r = run_arch(arch, workstations, 4, 5);
      t.add_row({sprite::ls::arch_name(arch), Table::num(r.median_ms, 1),
                 Table::num(r.grants_per_req, 2), std::to_string(r.bad_grants),
                 Table::num(r.msgs_per_request, 1)});
    }
    t.print();
    std::printf("\n");
  }

  bench::footnote(
      "Shape checks: the central server's latency and message bill stay\n"
      "flat as the cluster grows and it never issues bad grants (its state\n"
      "is authoritative, and hosts announce busy the instant their user\n"
      "returns). The shared file's latency and traffic grow with the file\n"
      "(every request re-reads one uncacheable record per host). The\n"
      "probabilistic architecture decides fastest but pays a continuous\n"
      "gossip bill that dwarfs everything at scale and hands out stale\n"
      "(refused) grants under churn. Multicast pays the responders' backoff\n"
      "window on every request, and every host in the cluster receives\n"
      "every query.");
  return 0;
}
