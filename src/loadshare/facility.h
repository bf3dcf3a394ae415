// Facility: assembles one host-selection architecture over a Cluster.
//
// Creates a LoadShareNode per workstation, wires owner-return eviction, and
// instantiates the chosen architecture's moving parts (migd daemon +
// announcers, load-file updaters, gossip, or multicast responders) plus a
// per-workstation HostSelector for requesters.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "loadshare/central.h"
#include "loadshare/distributed.h"
#include "loadshare/node.h"
#include "loadshare/selector.h"
#include "loadshare/shared_file.h"

namespace sprite::kern {
class Cluster;
}

namespace sprite::ls {

enum class Arch : int {
  kCentral = 0,
  kSharedFile,
  kProbabilistic,
  kMulticast,
};
const char* arch_name(Arch a);

class Facility {
 public:
  Facility(kern::Cluster& cluster, Arch arch);

  Arch arch() const { return arch_; }

  LoadShareNode& node(sim::HostId h);
  HostSelector& selector(sim::HostId h);
  MigdDaemon* daemon() { return daemon_.get(); }

  // Ground truth for stats: is the host actually available right now?
  bool actually_idle(sim::HostId h);

  // Number of workstations currently idle (ground truth).
  int idle_count();

 private:
  // Crash/reboot recovery, registered with the cluster at construction. A
  // workstation crash wipes its node/selector soft state and tells every
  // surviving node; a reboot re-wires the input observer (Host::crash_reset
  // cleared it) and, if migd's host came back, restarts and reinstalls the
  // daemon (thesis §6.3.2).
  void on_crash(sim::HostId h);
  void on_reboot(sim::HostId h);

  kern::Cluster& cluster_;
  Arch arch_;
  std::map<sim::HostId, std::unique_ptr<LoadShareNode>> nodes_;
  std::map<sim::HostId, std::unique_ptr<HostSelector>> selectors_;
  std::unique_ptr<MigdDaemon> daemon_;
  sim::HostId daemon_host_ = sim::kInvalidHost;
  std::map<sim::HostId, std::unique_ptr<MigdAnnouncer>> announcers_;
  std::map<sim::HostId, std::unique_ptr<LoadFileUpdater>> updaters_;
  // The user-return hooks passed to enable_autoeviction, kept so the
  // observer can be re-installed after a reboot.
  std::map<sim::HostId, std::function<void()>> eviction_hooks_;
};

}  // namespace sprite::ls
