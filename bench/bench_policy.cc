// E10 — placement vs migration policy (thesis §2.2/§8; [ELZ88] vs [KL88]
// debate, Zhou lifetimes [Zho87]).
//
// Paper positions:
//   Eager/Lazowska/Zahorjan — initial placement captures most of the
//     benefit; migrating active processes adds little.
//   Krueger/Livny — migration helps meaningfully beyond placement.
//   Douglis — with heavy-tailed lifetimes (mean 1.5 s, sd ~19 s), migrating
//     active processes pays only when restricted to long-running processes
//     and when migration overhead is low; exec-time placement is the
//     workhorse; eviction (autonomy), not load balance, is the strongest
//     reason to move active processes.
#include <cstdio>

#include "bench_util.h"
#include "workload/policy.h"

using sprite::wl::PolicyWorkload;
using sprite::core::SpriteCluster;
using sprite::sim::Time;
using sprite::util::Table;

namespace {

PolicyWorkload::Result run_policy(PolicyWorkload::Policy policy,
                                  double rate_hz) {
  SpriteCluster cluster({.workstations = 10,
                         .seed = 47,
                         .horizon = Time::hours(6)});
  cluster.warm_up();
  PolicyWorkload::Options opt;
  opt.policy = policy;
  opt.arrivals_per_host_hz = rate_hz;
  opt.duration = Time::minutes(15);
  PolicyWorkload wl(cluster.kernel(), cluster.load_sharing(), opt);
  return wl.run();
}

}  // namespace

int main() {
  bench::header(
      "E10: placement vs active migration (bench_policy)",
      "exec-time placement captures most of the benefit; migration of "
      "long-running processes adds a further, smaller improvement");

  for (double rate : {0.2, 0.4}) {
    std::printf("--- arrivals: %.1f jobs/s per host, Zhou lifetimes "
                "(mean 1.5 s, sd ~20 s) ---\n",
                rate);
    Table t({"policy", "jobs", "mean resp s", "p95 resp s", "mean slowdown",
             "remote placements", "active migrations"});
    for (auto policy : {PolicyWorkload::Policy::kNone,
                        PolicyWorkload::Policy::kPlacement,
                        PolicyWorkload::Policy::kPlacementPlusMigration}) {
      auto r = run_policy(policy, rate);
      t.add_row({PolicyWorkload::policy_name(policy),
                 std::to_string(r.jobs_finished),
                 Table::num(r.response_s.mean(), 2),
                 Table::num(r.response_s.quantile(0.95), 2),
                 Table::num(r.slowdown.mean(), 2),
                 std::to_string(r.placed_remotely),
                 std::to_string(r.active_migrations)});
    }
    t.print();
    std::printf("\n");
  }

  bench::footnote(
      "Shape checks: local-only suffers badly from heavy-tailed queueing;\n"
      "placement recovers most of the loss; adding active migration of\n"
      "known-long-running processes gives a further, smaller improvement —\n"
      "the resolution the thesis offers to the ELZ/KL debate.");
  return 0;
}
