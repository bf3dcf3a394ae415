// SpriteCluster: the library's front door.
//
// One object assembles a simulated Sprite network — workstations, file
// servers, the shared file system, process migration, and (optionally) a
// load-sharing facility — and offers blocking-style helpers for driving
// experiments: install programs, run them to completion, migrate them,
// request idle hosts, and advance simulated time.
//
// Everything underneath is reachable for advanced use: kernel() exposes the
// per-host subsystems (fs, vm, procs, mig, rpc, cpu), and load_sharing()
// exposes the selection facility.
//
// Quick start:
//
//   sprite::core::SpriteCluster cluster({.workstations = 8});
//   proc::ScriptBuilder b;
//   b.compute(sim::Time::sec(2)).exit(0);
//   cluster.install_program("/bin/work", b.image());
//   auto pid = cluster.spawn(cluster.workstation(0), "/bin/work", {});
//   cluster.migrate(pid, cluster.workstation(1));   // transparent move
//   int status = cluster.wait(pid);
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apps/pmake.h"
#include "kern/cluster.h"
#include "loadshare/facility.h"
#include "migration/manager.h"
#include "proc/script.h"
#include "proc/table.h"
#include "sim/costs.h"

namespace sprite::core {

class SpriteCluster {
 public:
  struct Options {
    int workstations = 8;
    int file_servers = 1;
    // Replicas per namespace partition (1 = classic single server,
    // 2 = primary-backup with client failover).
    int fs_replicas = 1;
    std::uint64_t seed = 1;
    // Host-selection architecture; load sharing can be disabled entirely
    // for mechanism-only experiments.
    bool enable_load_sharing = true;
    ls::Arch selection = ls::Arch::kCentral;
    sim::Costs costs;
    sim::Time horizon = sim::Time::hours(24);
  };

  SpriteCluster();  // all defaults
  explicit SpriteCluster(Options options);

  // ---- Direct access to the layers ----
  kern::Cluster& kernel() { return cluster_; }
  sim::Simulator& sim() { return cluster_.sim(); }
  ls::Facility& load_sharing();
  kern::Host& host(sim::HostId id) { return cluster_.host(id); }
  sim::HostId workstation(int i) const;
  int num_workstations() const;

  // ---- Programs ----
  // Registers an executable (creates the binary on the file server too).
  void install_program(const std::string& path, proc::ProgramImage image);

  // Starts a process on `where` (its home). Blocks simulated time until the
  // kernel has created it.
  proc::Pid spawn(sim::HostId where, const std::string& exe,
                  std::vector<std::string> args);

  // Runs until `pid` exits; returns its exit status. `pid`'s home must be
  // the host it was spawned on.
  int wait(proc::Pid pid);

  // ---- Migration ----
  // Transparently moves a running process; fails with the kernel's reason
  // (not idle target checks are the policy layer's job, not enforced here).
  util::Status migrate(proc::Pid pid, sim::HostId target);

  // Evicts all foreign processes from a host (what happens when its owner
  // touches the keyboard); returns how many went home.
  int evict(sim::HostId host);

  // ---- Load sharing ----
  // Blocking host request/release through the configured architecture.
  std::vector<sim::HostId> request_idle_hosts(sim::HostId requester, int n);
  void release_host(sim::HostId requester, sim::HostId granted);

  // ---- Time ----
  // Advances simulated time (processes, daemons, caches keep running).
  void run_for(sim::Time duration);
  // Lets every workstation pass the idle-detection threshold.
  void warm_up() { run_for(sim::Time::sec(45)); }

  // Where a process currently runs, according to its home record.
  sim::HostId locate(proc::Pid pid);

 private:
  Options options_;
  kern::Cluster cluster_;
  std::unique_ptr<ls::Facility> facility_;
};

}  // namespace sprite::core
