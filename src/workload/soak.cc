#include "workload/soak.h"

#include <algorithm>
#include <cstdio>

#include "ckpt/manager.h"
#include "proc/table.h"
#include "sim/cpu.h"
#include "util/assert.h"

namespace sprite::wl {

using sim::HostId;
using sim::Time;

SoakHarness::SoakHarness(SoakOptions opts) : opts_(opts) {
  kern::Cluster::Config cfg;
  cfg.num_workstations = opts_.workstations;
  cfg.num_file_servers = 1;
  cfg.fs_replicas = opts_.fs_replicas;
  cfg.seed = opts_.seed;
  // Slack past the session horizon: crash detection, restarts, and the last
  // batch jobs drain after the final event; recurring activity (monitor
  // probes, autockpt scans) must keep ticking while they do.
  cfg.horizon = opts_.sessions.horizon + Time::hours(4);
  cluster_ = std::make_unique<kern::Cluster>(cfg);
  facility_ = std::make_unique<ls::Facility>(*cluster_, ls::Arch::kCentral);

  if (opts_.vm_strategy != mig::VmStrategy::kSpriteFlush) {
    for (HostId w : cluster_->workstations())
      cluster_->host(w).mig().set_strategy(opts_.vm_strategy);
  }

  if (opts_.faults) {
    faults_ = std::make_unique<sim::FaultPlan>(cluster_->sim(),
                                               cluster_->net());
    schedule_faults();
    faults_->arm({.crash = [this](HostId h) { cluster_->crash_host(h); },
                  .reboot = [this](HostId h) { cluster_->reboot_host(h); }});
  }

  if (opts_.autocheckpoint) {
    for (HostId w : cluster_->workstations()) {
      auto& ck = cluster_->host(w).ckpt();
      ck.set_auto_policy(opts_.ckpt_interval, opts_.ckpt_dirty_threshold);
      ck.enable_autocheckpoint(true);
    }
  }

  engine_ = std::make_unique<Engine>(*cluster_, facility_.get(), opts_.engine);

  trace::Registry& tr = cluster_->sim().trace();
  g_foreign_resident_ = &tr.gauge("soak.residency.foreign");
  g_util_recovered_ = &tr.gauge("soak.util.recovered");
  cluster_->sim().every(opts_.sample_period, "soak_sample",
                        [this] { sample(); });

  // Continuous telemetry: the standard cluster series plus the soak gauges,
  // with the SLO watchdog evaluated from the same per-stride snapshots.
  trace::SeriesSampler::Options sopts;
  sopts.stride = opts_.series_stride;
  sopts.capacity = opts_.series_capacity;
  sampler_ = std::make_unique<trace::SeriesSampler>(tr, sopts);
  sampler_->track_all(trace::default_cluster_series());
  sampler_->track({"soak.residency.foreign", trace::SeriesKind::kGauge});
  sampler_->track({"workload.session.active", trace::SeriesKind::kGauge});
  sampler_->track({"workload.job.running", trace::SeriesKind::kGauge});
  watchdog_ = std::make_unique<trace::SloWatchdog>(tr, opts_.series_stride);
  for (const trace::SloRule& rule : opts_.slo_rules)
    watchdog_->add_rule(rule);
  cluster_->sim().every(opts_.series_stride, "trace_series_sample", [this] {
    sampler_->sample();
    watchdog_->evaluate();
  });
}

SoakHarness::~SoakHarness() = default;

void SoakHarness::schedule_faults() {
  const auto ws = cluster_->workstations();
  const auto n = ws.size();
  const Time horizon = opts_.sessions.horizon;

  // Rotating workstation crashes. Without a backup replica the file server
  // is never crashed: it holds the shared FS, the checkpoint images, and
  // migd, and the thesis's failure model keeps servers on conditioned
  // power. With primary-backup replication that restriction lifts — the
  // primary joins the schedule below and its crash must degrade, not end,
  // the run.
  std::size_t i = 0;
  for (Time t = opts_.crash_period; t + opts_.reboot_after < horizon;
       t += opts_.crash_period, ++i) {
    faults_->crash_host(ws[i % n], t, opts_.reboot_after);
  }

  if (opts_.fs_replicas >= 2 && opts_.server_crashes) {
    // Crash the configured primary once per period. The reboot brings it
    // back as a demoted replica (snapshot resync off the promoted backup),
    // so by the next period the *promoted* host is primary and this crash
    // exercises failback onto the rebooted original.
    const HostId primary = cluster_->file_server().id();
    const HostId backup = cluster_->fs_backup().id();
    std::size_t k = 0;
    for (Time t = opts_.server_crash_period;
         t + opts_.server_reboot_after < horizon;
         t += opts_.server_crash_period, ++k) {
      faults_->crash_host(k % 2 == 0 ? primary : backup, t,
                          opts_.server_reboot_after);
    }
  }

  if (!opts_.partitions || n < 6) return;
  // A rotating trio of workstations loses touch with everyone else (file
  // server included), then the partition heals and reintegration runs.
  std::size_t k = 0;
  for (Time t = opts_.partition_period;
       t + opts_.partition_heal < horizon;
       t += opts_.partition_period, ++k) {
    std::vector<HostId> island = {ws[(3 * k) % n], ws[(3 * k + 1) % n],
                                  ws[(3 * k + 2) % n]};
    std::vector<HostId> mainland;
    for (std::size_t h = 0; h < cluster_->num_hosts(); ++h) {
      const auto id = static_cast<HostId>(h);
      if (std::find(island.begin(), island.end(), id) == island.end())
        mainland.push_back(id);
    }
    faults_->partition(island, mainland, t, t + opts_.partition_heal);
  }
}

void SoakHarness::sample() {
  // Residency only: foreign CPU is accounted where it burns, by the kernel
  // (proc.cpu.foreign_us), so short-lived foreign processes that start and
  // exit between samples are never missed.
  std::int64_t foreign_now = 0;
  for (std::size_t h = 0; h < cluster_->num_hosts(); ++h) {
    kern::Host& host = cluster_->host(static_cast<HostId>(h));
    if (!host.up()) continue;
    for (const auto& pcb : host.procs().local_processes())
      if (pcb->foreign()) ++foreign_now;
  }
  g_foreign_resident_->set(static_cast<double>(foreign_now));
  foreign_resident_sum_ += foreign_now;
  ++samples_;
}

double SoakHarness::merged_percentile(const std::string& name,
                                      const std::vector<HostId>& hosts,
                                      double q) const {
  const auto bounds = trace::default_latency_bounds_ms();
  std::vector<std::int64_t> counts(bounds.size() + 1, 0);
  std::int64_t total = 0;
  trace::Registry& tr = cluster_->sim().trace();
  for (HostId w : hosts) {
    auto& h = tr.histogram(name, trace::default_latency_bounds_ms(), w);
    for (std::size_t b = 0; b < counts.size(); ++b) counts[b] += h.bucket(b);
    total += h.count();
  }
  std::vector<double> bvec(bounds.begin(), bounds.end());
  return trace::percentile_from_buckets(bvec, counts, total, q);
}

SoakReport SoakHarness::run() {
  engine_->start(opts_.sessions, opts_.seed);
  cluster_->run_until_done([this] { return engine_->drained(); });
  return finish();
}

SoakReport SoakHarness::run_replay(ParsedTrace trace) {
  engine_->start_replay(std::move(trace));
  cluster_->run_until_done([this] { return engine_->drained(); });
  return finish();
}

SoakReport SoakHarness::finish() {
  sample();  // final residency reading

  SoakReport r;
  r.workload = engine_->summary();
  r.audit = audit_incarnations(*cluster_, engine_->jobs());

  const trace::Registry& tr = cluster_->sim().trace();
  r.foreign_cpu_s =
      static_cast<double>(tr.counter_total("proc.cpu.foreign_us")) / 1e6;
  for (std::size_t h = 0; h < cluster_->num_hosts(); ++h)
    r.total_user_cpu_s += cluster_->host(static_cast<HostId>(h))
                              .cpu()
                              .busy_time(sim::JobClass::kUser)
                              .s();
  r.utilization_recovered =
      r.total_user_cpu_s > 0.0 ? r.foreign_cpu_s / r.total_user_cpu_s : 0.0;
  g_util_recovered_->set(r.utilization_recovered);

  for (HostId w : cluster_->workstations())
    r.evictions += tr.counter_value("ls.eviction.triggered", w);
  const auto ws = cluster_->workstations();
  r.evict_p50_ms = merged_percentile("ls.eviction.latency_ms", ws, 0.50);
  r.evict_p90_ms = merged_percentile("ls.eviction.latency_ms", ws, 0.90);
  r.evict_p99_ms = merged_percentile("ls.eviction.latency_ms", ws, 0.99);

  r.avg_foreign_resident =
      samples_ > 0 ? static_cast<double>(foreign_resident_sum_) /
                         static_cast<double>(samples_)
                   : 0.0;

  r.crashes = tr.counter_total("fault.crash.injected");
  r.reboots = tr.counter_total("fault.reboot.injected");
  r.links_cut = tr.counter_total("fault.link.cut");
  r.checkpoints = tr.counter_total("ckpt.capture.completed");
  r.restarts = tr.counter_total("ckpt.restart.completed");
  r.evicted_processes = tr.counter_total("mig.eviction.completed");

  // Failover accounting: promotions land at the replica hosts, the client
  // counters at every host that runs an FsClient, so sum cluster-wide.
  r.fs_promotions = tr.counter_total("fs.failover.promotions");
  r.fs_reroutes = tr.counter_total("fs.failover.reroutes");
  r.fs_reopens = tr.counter_total("fs.failover.reopens");
  r.fs_rehomed_blocks = tr.counter_total("fs.failover.rehomed_blocks");
  r.fs_dirty_lost = tr.counter_total("fs.cache.dirty_lost");
  std::vector<HostId> all_hosts;
  for (std::size_t h = 0; h < cluster_->num_hosts(); ++h)
    all_hosts.push_back(static_cast<HostId>(h));
  r.failover_p50_ms =
      merged_percentile("fs.failover.latency_ms", all_hosts, 0.50);
  r.failover_p99_ms =
      merged_percentile("fs.failover.latency_ms", all_hosts, 0.99);

  // One final telemetry tick at the drain instant, so the last partial
  // stride (and anything the drain tail did) is on the record too.
  sampler_->sample();
  watchdog_->evaluate();
  r.slo_breaches = static_cast<std::int64_t>(watchdog_->breaches().size());
  for (const trace::SloBreach& b : watchdog_->breaches())
    r.slo_problems.push_back(b.to_string());
  return r;
}

std::string SoakReport::to_string() const {
  char buf[2048];
  int n = std::snprintf(
      buf, sizeof(buf),
      "soak: %lld sessions (%lld jobs: %lld finished, %lld crashed, %lld "
      "dropped; %lld storms + %lld crashed)\n"
      "  utilization recovered by migration: %.2f%% (%.1fs foreign of %.1fs "
      "user CPU)\n"
      "  evictions: %lld (latency p50 %.2fms, p90 %.2fms, p99 %.2fms)\n"
      "  foreign residency: %.2f processes avg\n"
      "  faults: %lld crashes, %lld reboots, %lld links cut; %lld "
      "checkpoints, %lld restarts, %lld processes evicted\n"
      "  audit: %s (%lld lost, %lld duplicated)",
      static_cast<long long>(workload.sessions_begun),
      static_cast<long long>(workload.jobs_submitted),
      static_cast<long long>(workload.jobs_finished),
      static_cast<long long>(workload.jobs_crashed),
      static_cast<long long>(workload.jobs_dropped),
      static_cast<long long>(workload.storms_finished),
      static_cast<long long>(workload.storms_crashed),
      utilization_recovered * 100.0, foreign_cpu_s, total_user_cpu_s,
      static_cast<long long>(evictions), evict_p50_ms, evict_p90_ms,
      evict_p99_ms, avg_foreign_resident, static_cast<long long>(crashes),
      static_cast<long long>(reboots), static_cast<long long>(links_cut),
      static_cast<long long>(checkpoints), static_cast<long long>(restarts),
      static_cast<long long>(evicted_processes),
      audit.ok() ? "OK" : "FAILED", static_cast<long long>(audit.lost),
      static_cast<long long>(audit.duplicated));
  if (fs_promotions > 0 || fs_dirty_lost > 0) {
    std::snprintf(
        buf + n, sizeof(buf) - static_cast<std::size_t>(n),
        "\n  fs failover: %lld promotions, %lld reroutes, %lld reopens, "
        "%lld blocks rehomed, %lld dirty lost (latency p50 %.2fms, p99 "
        "%.2fms)",
        static_cast<long long>(fs_promotions),
        static_cast<long long>(fs_reroutes),
        static_cast<long long>(fs_reopens),
        static_cast<long long>(fs_rehomed_blocks),
        static_cast<long long>(fs_dirty_lost), failover_p50_ms,
        failover_p99_ms);
  }
  std::string out = buf;
  if (slo_breaches > 0) {
    out += "\n  slo: " + std::to_string(slo_breaches) + " breach(es)";
    for (const std::string& p : slo_problems) out += "\n    " + p;
  }
  return out;
}

}  // namespace sprite::wl
