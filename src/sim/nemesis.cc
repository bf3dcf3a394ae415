#include "sim/nemesis.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "ckpt/manager.h"
#include "fs/client.h"
#include "fs/server.h"
#include "rpc/rpc.h"
#include "util/async.h"

namespace sprite::sim {

namespace {

std::string checker_path(int file) {
  return "/nemesis/f" + std::to_string(file);
}

// An error the environment is allowed to hand the checker: the op raced a
// fault window and *said so*. Anything surfacing as success is held to the
// history check instead.
bool tolerable(const util::Status& st) { return !st.is_ok(); }

}  // namespace

NemesisHarness::NemesisHarness(NemesisOptions opts)
    : opts_(opts),
      rng_(opts.seed),
      payload_rng_(opts.seed ^ 0x6e656d6573697321ULL) {
  kern::Cluster::Config cfg;
  cfg.num_workstations = opts_.workstations;
  cfg.num_file_servers = 1;
  cfg.fs_replicas = opts_.fs_replicas;
  cfg.seed = opts_.seed;
  // Slack past the horizon: down verdicts, restarts, journal recovery, and
  // the final scrub pass all drain after the last scheduled event.
  cfg.horizon = opts_.horizon + Time::hours(4);
  cfg.costs.fs_scrub_interval = opts_.scrub_interval;
  cluster_ = std::make_unique<kern::Cluster>(cfg);
  facility_ = std::make_unique<ls::Facility>(*cluster_, ls::Arch::kCentral);

  if (opts_.vm_strategy != mig::VmStrategy::kSpriteFlush) {
    for (HostId w : cluster_->workstations())
      cluster_->host(w).mig().set_strategy(opts_.vm_strategy);
  }

  // The checker's in-memory history dies with its host, so the last
  // workstation is exempt from crash and torn-write entries (partitions may
  // still isolate it: those only yield honest errors).
  const auto ws = cluster_->workstations();
  checker_host_ = ws.back();
  files_.resize(static_cast<std::size_t>(opts_.checker_files));
  for (auto& f : files_) f.attempts.emplace_back();  // attempts[0] = empty

  faults_ = std::make_unique<FaultPlan>(cluster_->sim(), cluster_->net());
  sample_schedule();
  faults_->arm(
      {.crash = [this](HostId h) { cluster_->crash_host(h); },
       .reboot = [this](HostId h) { cluster_->reboot_host(h); },
       .corrupt =
           [this](HostId h, std::uint64_t draw) {
             if (auto* srv = cluster_->host(h).fs_server())
               srv->inject_bit_flip(draw);
           },
       .disk_full =
           [this](HostId h, bool full) {
             if (auto* srv = cluster_->host(h).fs_server())
               srv->set_disk_full(full);
           },
       .torn =
           [this](HostId h, std::uint64_t draw) {
             if (auto* srv = cluster_->host(h).fs_server())
               srv->tear_last_write(draw);
           }});

  if (opts_.scrub_interval > Time::zero()) {
    cluster_->file_server().fs_server()->enable_scrub();
    if (opts_.fs_replicas >= 2)
      cluster_->fs_backup().fs_server()->enable_scrub();
  }

  // Autocheckpoint on every workstation, as in the soak harness: crashed
  // long-batch work must restart, not vanish, or the audit fails.
  for (HostId w : ws) {
    auto& ck = cluster_->host(w).ckpt();
    ck.set_auto_policy(Time::minutes(3), 256);
    ck.enable_autocheckpoint(true);
  }

  engine_ = std::make_unique<wl::Engine>(*cluster_, facility_.get(),
                                         wl::Engine::Options{});

  trace::Registry& tr = cluster_->sim().trace();
  c_rounds_ = &tr.counter("nemesis.check.rounds");
  c_commits_ = &tr.counter("nemesis.check.commits");
  c_errors_ = &tr.counter("nemesis.check.errors_tolerated");
  c_stale_ = &tr.counter("nemesis.check.stale_reads");
  c_violations_ = &tr.counter("nemesis.check.violations");
}

NemesisHarness::~NemesisHarness() = default;

void NemesisHarness::sample_schedule() {
  // Every instant falls in [5%, 85%] of the horizon so injected damage has
  // time to land before the drain.
  const auto draw_at = [this] {
    return opts_.horizon * rng_.uniform(0.05, 0.85);
  };
  const auto draw_reboot = [this] {
    return Time::sec(rng_.uniform_int(30, 300));
  };

  // Down-windows may not overlap per host: crashing an already-crashed
  // host (or rebooting an up one) is a driver bug, not a fault. Each
  // sampled crash reserves [at, at + reboot + 1s]; draws that collide are
  // retried a few times, then dropped.
  std::map<HostId, std::vector<std::pair<Time, Time>>> down_windows;
  const auto reserve = [&down_windows](HostId h, Time at, Time until) {
    for (const auto& [a, b] : down_windows[h])
      if (at <= b && a <= until) return false;
    down_windows[h].emplace_back(at, until);
    return true;
  };
  const auto sample_crash = [&, this](HostId h, bool torn) {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const Time at = draw_at();
      const Time reboot = draw_reboot();
      if (!reserve(h, at, at + reboot + Time::sec(1))) continue;
      if (torn)
        faults_->torn_crash(h, at, reboot, rng_.next_u64());
      else
        faults_->crash_host(h, at, reboot);
      return;
    }
  };

  const auto ws = cluster_->workstations();
  std::vector<HostId> crashable(ws.begin(), ws.end());
  crashable.erase(std::remove(crashable.begin(), crashable.end(),
                              checker_host_),
                  crashable.end());

  for (int i = 0; i < opts_.ws_crashes && !crashable.empty(); ++i) {
    const HostId h = crashable[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(crashable.size()) - 1))];
    sample_crash(h, /*torn=*/false);
  }

  const HostId primary = cluster_->file_server().id();
  const HostId backup =
      opts_.fs_replicas >= 2 ? cluster_->fs_backup().id() : kInvalidHost;

  if (opts_.fs_replicas >= 2) {
    // Alternate primary/backup so failover and failback both run.
    for (int i = 0; i < opts_.server_crashes; ++i)
      sample_crash(i % 2 == 0 ? primary : backup, /*torn=*/false);
    for (int i = 0; i < opts_.torn_crashes; ++i)
      sample_crash(rng_.bernoulli(0.5) ? primary : backup, /*torn=*/true);
  }

  for (int i = 0; i < opts_.partitions && crashable.size() >= 2; ++i) {
    const int island_size = static_cast<int>(rng_.uniform_int(
        1, std::min<std::int64_t>(3,
                                  static_cast<std::int64_t>(crashable.size()) -
                                      1)));
    std::vector<HostId> island;
    std::size_t start = static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(crashable.size()) - 1));
    for (int k = 0; k < island_size; ++k)
      island.push_back(crashable[(start + static_cast<std::size_t>(k)) %
                                 crashable.size()]);
    std::vector<HostId> mainland;
    for (std::size_t h = 0; h < cluster_->num_hosts(); ++h) {
      const auto id = static_cast<HostId>(h);
      if (std::find(island.begin(), island.end(), id) == island.end())
        mainland.push_back(id);
    }
    const Time from = draw_at();
    faults_->partition(island, mainland, from,
                       from + Time::sec(rng_.uniform_int(30, 120)));
  }

  for (int i = 0; i < opts_.corruptions; ++i) {
    const HostId victim =
        (opts_.fs_replicas >= 2 && rng_.bernoulli(0.5)) ? backup : primary;
    faults_->corrupt_block(victim, draw_at(), rng_.next_u64());
  }

  for (int i = 0; i < opts_.disk_full_windows; ++i) {
    const Time from = draw_at();
    faults_->disk_full(primary, from,
                       from + Time::sec(rng_.uniform_int(30, 120)));
  }

  for (int i = 0; i < opts_.message_faults; ++i) {
    // Broad filters across the chatty services; the nth match may never
    // occur — a sampled rule that stays dormant is fine.
    static const rpc::ServiceId kServices[] = {
        rpc::ServiceId::kFsIo, rpc::ServiceId::kFsName, rpc::ServiceId::kProc,
        rpc::ServiceId::kMigration, rpc::ServiceId::kFsRepl};
    FaultPlan::Filter f;
    if (rng_.bernoulli(0.3)) {
      f = rpc::RpcNode::match_reply(kInvalidHost);
    } else {
      f = rpc::RpcNode::match_request(
          kServices[rng_.uniform_int(0, 4)]);
    }
    const int nth = static_cast<int>(rng_.uniform_int(1, 200));
    if (rng_.bernoulli(0.5)) {
      faults_->duplicate_message(std::move(f), nth,
                                 static_cast<int>(rng_.uniform_int(1, 2)),
                                 Time::msec(rng_.uniform_int(1, 5)));
    } else {
      faults_->reorder_message(std::move(f), nth,
                               Time::msec(rng_.uniform_int(1, 20)));
    }
  }
}

NemesisReport NemesisHarness::run() {
  report_.seed = opts_.seed;

  // users == 0 => checker-only run (no workload generator alongside).
  if (opts_.users > 0) {
    wl::SessionSpec sessions;
    sessions.users = opts_.users;
    sessions.horizon = opts_.horizon;
    engine_->start(sessions, opts_.seed);
  }

  // The checker needs its directory before round 0; retry until the create
  // lands (the schedule window starts at 5% of the horizon, so normally the
  // very first attempt succeeds).
  util::async_loop([this](std::size_t attempt, auto next) {
    cluster_->sim().after(
        attempt == 0 ? Time::sec(1) : Time::sec(5), [this, next] {
          cluster_->host(checker_host_).fs().mkdir(
              "/nemesis", [this, next](util::Status st) {
                if (!st.is_ok() && st.err() != util::Err::kExist)
                  return next();
                checker_round(0);
              });
        });
  });

  cluster_->run_until_done([this] {
    return (opts_.users <= 0 || engine_->drained()) && checker_done_;
  });
  return finish();
}

void NemesisHarness::checker_round(int round) {
  if (round >= opts_.checker_rounds) {
    checker_done_ = true;
    return;
  }
  c_rounds_->inc();
  ++report_.rounds;

  const int file = static_cast<int>(
      payload_rng_.uniform_int(0, opts_.checker_files - 1));
  // Distinct payload per round: random fill plus the round stamp, so every
  // legitimate observable state of a file is byte-identifiable.
  fs::Bytes payload(
      static_cast<std::size_t>(payload_rng_.uniform_int(64, 4096)));
  for (auto& b : payload)
    b = static_cast<std::uint8_t>(payload_rng_.next_u64());
  payload[0] = static_cast<std::uint8_t>(round);
  payload[1] = static_cast<std::uint8_t>(round >> 8);

  const auto next = [this, round] {
    // Spread the remaining rounds over the schedule window with jitter.
    const Time base = opts_.horizon * (0.9 / opts_.checker_rounds);
    cluster_->sim().after(base * payload_rng_.uniform(0.5, 1.5),
                          [this, round] { checker_round(round + 1); });
  };
  const auto tolerate = [this](const util::Status& st) {
    (void)st;
    c_errors_->inc();
    ++report_.errors_tolerated;
  };

  auto& fsc = cluster_->host(checker_host_).fs();
  const fs::OpenFlags flags = {.read = true, .write = true, .create = true,
                               .truncate = true, .no_cache = true};
  fsc.open(checker_path(file), flags,
           [this, file, round, payload, next, tolerate,
            &fsc](util::Result<fs::StreamPtr> r) {
    if (!r.is_ok()) {
      if (tolerable(r.status())) tolerate(r.status());
      return next();
    }
    fs::StreamPtr s = *r;
    // From here the payload is *attempted*: the server may apply a write
    // whose ack is then lost, so it joins the legitimate-content set
    // before the outcome is known.
    FileHistory& h = files_[static_cast<std::size_t>(file)];
    h.attempts.push_back(payload);
    const std::size_t attempt_idx = h.attempts.size() - 1;

    fsc.write(s, payload,
              [this, file, round, s, attempt_idx, next, tolerate,
               &fsc](util::Result<std::int64_t> w) {
      const auto finish_round = [this, file, round, s, next, tolerate,
                                 &fsc] {
        // Read-back through a fresh server round trip (no_cache): the
        // history check proper.
        (void)fsc.seek(s, 0);
        fsc.read(s, 64 * 1024,
                 [this, file, round, s, next, tolerate,
                  &fsc](util::Result<fs::Bytes> rd) {
          if (!rd.is_ok()) {
            tolerate(rd.status());
          } else {
            const FileHistory& h = files_[static_cast<std::size_t>(file)];
            bool matched = false;
            for (std::size_t i = h.attempts.size(); i-- > 0;) {
              if (*rd != h.attempts[i]) continue;
              matched = true;
              if (i < h.committed) {
                c_stale_->inc();
                ++report_.stale_reads;
              }
              break;
            }
            if (!matched) {
              char buf[160];
              std::snprintf(buf, sizeof(buf),
                            "file %s: read %zu bytes (round %d) matching no "
                            "written payload — silent wrong data",
                            checker_path(file).c_str(), rd->size(), round);
              record_violation(buf);
            }
          }
          fsc.close(s, [next](util::Status) { next(); });
        });
      };

      if (!w.is_ok()) {
        tolerate(w.status());
        return finish_round();
      }
      fsc.fsync(s, [this, file, attempt_idx, finish_round,
                    tolerate](util::Status st) {
        if (st.is_ok()) {
          files_[static_cast<std::size_t>(file)].committed = attempt_idx;
          c_commits_->inc();
          ++report_.commits;
        } else {
          tolerate(st);
        }
        finish_round();
      });
    });
  });
}

void NemesisHarness::record_violation(std::string what) {
  char head[64];
  std::snprintf(head, sizeof(head), "nemesis --seed %llu: ",
                static_cast<unsigned long long>(opts_.seed));
  report_.violations.push_back(head + std::move(what));
  c_violations_->inc();
  cluster_->sim().trace().flight_note("nemesis.check", "violation",
                                      checker_host_);
}

NemesisReport NemesisHarness::finish() {
  report_.audit = wl::audit_incarnations(*cluster_, engine_->jobs());

  const trace::Registry& tr = cluster_->sim().trace();
  report_.crashes = tr.counter_total("fault.crash.injected");
  report_.corruptions_injected = tr.counter_total("fault.block.corrupted");
  report_.writes_torn = tr.counter_total("fault.write.torn");
  report_.frames_duplicated = tr.counter_total("fault.message.duplicated");
  report_.frames_reordered = tr.counter_total("fault.message.reordered");
  report_.scrub_repaired = tr.counter_total("fs.scrub.repaired");
  report_.scrub_unrepairable = tr.counter_total("fs.scrub.unrepairable");
  report_.journal_replayed = tr.counter_total("fs.journal.replayed");
  report_.journal_discarded = tr.counter_total("fs.journal.discarded");
  report_.dedup_hits = tr.counter_total("rpc.dedup.hits");
  return report_;
}

std::string NemesisReport::to_string() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "nemesis seed %llu: %s\n"
      "  checker: %lld rounds, %lld commits, %lld errors tolerated, %lld "
      "stale reads, %zu violations\n"
      "  faults: %lld crashes, %lld blocks corrupted, %lld writes torn, "
      "%lld frames duplicated, %lld reordered\n"
      "  defenses: %lld scrub-repaired, %lld unrepairable, %lld journal "
      "replayed, %lld discarded, %lld dup-hits suppressed\n"
      "  audit: %s (%lld lost, %lld duplicated)",
      static_cast<unsigned long long>(seed), ok() ? "OK" : "VIOLATION",
      static_cast<long long>(rounds), static_cast<long long>(commits),
      static_cast<long long>(errors_tolerated),
      static_cast<long long>(stale_reads), violations.size(),
      static_cast<long long>(crashes),
      static_cast<long long>(corruptions_injected),
      static_cast<long long>(writes_torn),
      static_cast<long long>(frames_duplicated),
      static_cast<long long>(frames_reordered),
      static_cast<long long>(scrub_repaired),
      static_cast<long long>(scrub_unrepairable),
      static_cast<long long>(journal_replayed),
      static_cast<long long>(journal_discarded),
      static_cast<long long>(dedup_hits), audit.ok() ? "OK" : "FAILED",
      static_cast<long long>(audit.lost),
      static_cast<long long>(audit.duplicated));
  std::string out = buf;
  for (const auto& v : violations) out += "\n  " + v;
  return out;
}

}  // namespace sprite::sim
