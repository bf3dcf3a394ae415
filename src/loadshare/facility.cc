#include "loadshare/facility.h"

#include "kern/cluster.h"
#include "util/assert.h"

namespace sprite::ls {

using sim::HostId;

const char* arch_name(Arch a) {
  switch (a) {
    case Arch::kCentral: return "central-migd";
    case Arch::kSharedFile: return "shared-file";
    case Arch::kProbabilistic: return "probabilistic";
    case Arch::kMulticast: return "multicast";
  }
  return "?";
}

namespace {
constexpr const char* kMigdPath = "/hosts/migd";
constexpr const char* kLoadFilePath = "/hosts/loadfile";
constexpr const char* kClaimFilePath = "/hosts/claims";
}  // namespace

Facility::Facility(kern::Cluster& cluster, Arch arch)
    : cluster_(cluster), arch_(arch) {
  const auto workstations = cluster_.workstations();
  auto ground_truth = [this](HostId h) { return actually_idle(h); };

  for (HostId w : workstations) {
    auto n = std::make_unique<LoadShareNode>(cluster_.host(w));
    n->register_services();
    nodes_.emplace(w, std::move(n));
  }

  switch (arch_) {
    case Arch::kCentral: {
      // The daemon runs on file server 0 (a host that is always up).
      daemon_ = std::make_unique<MigdDaemon>(cluster_.file_server());
      daemon_host_ = cluster_.file_server().id();
      SPRITE_CHECK(daemon_->install(kMigdPath).is_ok());
      for (HostId w : workstations) {
        auto ann = std::make_unique<MigdAnnouncer>(cluster_.host(w),
                                                   *nodes_.at(w), kMigdPath);
        ann->start();
        MigdAnnouncer* ann_raw = ann.get();
        eviction_hooks_[w] = [ann_raw] { ann_raw->announce_now(); };
        nodes_.at(w)->enable_autoeviction(eviction_hooks_[w]);
        announcers_.emplace(w, std::move(ann));
        selectors_.emplace(
            w, std::make_unique<CentralSelector>(cluster_.host(w), kMigdPath,
                                                 ground_truth));
      }
      break;
    }
    case Arch::kSharedFile: {
      cluster_.fs_primary().fs_server()->mkdir_p("/hosts");
      for (HostId w : workstations) {
        auto upd = std::make_unique<LoadFileUpdater>(
            cluster_.host(w), *nodes_.at(w), kLoadFilePath);
        upd->start();
        LoadFileUpdater* upd_raw = upd.get();
        eviction_hooks_[w] = [upd_raw] { upd_raw->update_now(); };
        nodes_.at(w)->enable_autoeviction(eviction_hooks_[w]);
        updaters_.emplace(w, std::move(upd));
        selectors_.emplace(
            w, std::make_unique<SharedFileSelector>(
                   cluster_.host(w), kLoadFilePath, kClaimFilePath,
                   static_cast<int>(cluster_.num_hosts()), ground_truth));
      }
      break;
    }
    case Arch::kProbabilistic: {
      for (HostId w : workstations) {
        nodes_.at(w)->start_gossip(workstations);
        eviction_hooks_[w] = nullptr;
        nodes_.at(w)->enable_autoeviction();
        selectors_.emplace(w, std::make_unique<ProbabilisticSelector>(
                                  cluster_.host(w), *nodes_.at(w)));
      }
      break;
    }
    case Arch::kMulticast: {
      for (HostId w : workstations) {
        nodes_.at(w)->enable_multicast_responder();
        eviction_hooks_[w] = nullptr;
        nodes_.at(w)->enable_autoeviction();
        selectors_.emplace(w, std::make_unique<MulticastSelector>(
                                  cluster_.host(w), *nodes_.at(w)));
      }
      break;
    }
  }

  // Survivors learn of peer deaths from their own host monitors, not from
  // the simulator: each workstation's verdicts clear ghost reservations and
  // stale gossip, and migd's verdicts free grants held by dead requesters.
  for (HostId w : workstations) {
    LoadShareNode* node_raw = nodes_.at(w).get();
    cluster_.host(w).monitor().add_peer_down_observer(
        [node_raw](HostId peer) { node_raw->peer_crashed(peer); });
    cluster_.host(w).monitor().add_interest_provider(
        [node_raw](std::vector<HostId>& out) {
          if (node_raw->reserved()) out.push_back(node_raw->reserved_by());
        });
  }
  if (daemon_) {
    MigdDaemon* daemon_raw = daemon_.get();
    cluster_.host(daemon_host_).monitor().add_peer_down_observer(
        [daemon_raw](HostId peer) { daemon_raw->peer_crashed(peer); });
    cluster_.host(daemon_host_).monitor().add_interest_provider(
        [daemon_raw](std::vector<HostId>& out) {
          daemon_raw->collect_peer_interest(out);
        });
  }

  cluster_.add_crash_observer([this](HostId h) { on_crash(h); });
  cluster_.add_reboot_observer([this](HostId h) { on_reboot(h); });
}

void Facility::on_crash(HostId h) {
  // Only the crashed host's own user-level state is torn down here (it died
  // with the kernel). Survivors are NOT told — their monitors must discover
  // the death in-protocol.
  if (auto it = nodes_.find(h); it != nodes_.end()) it->second->crash_reset();
  if (auto it = selectors_.find(h); it != selectors_.end())
    it->second->reset();
  if (auto it = announcers_.find(h); it != announcers_.end())
    it->second->reset();
  if (auto it = updaters_.find(h); it != updaters_.end()) it->second->reset();
  if (daemon_ && h == daemon_host_) {
    // The daemon process died with its host. Its table is rebuilt from
    // announcements after the reinstall in on_reboot(); meanwhile
    // requesters' pdev calls fail and they retry (Sprite §6.3.2).
    daemon_->restart();
  }
}

void Facility::on_reboot(HostId h) {
  if (daemon_ && h == daemon_host_) {
    // Reinstall the pseudo-device: the rebooted kernel lost the server
    // registration, and create_pdev upserts the new tag into the (possibly
    // surviving) file-server node.
    SPRITE_CHECK(daemon_->install(kMigdPath).is_ok());
  }
  // Host::crash_reset cleared the input observer; re-arm owner protection.
  if (auto it = nodes_.find(h); it != nodes_.end())
    it->second->enable_autoeviction(eviction_hooks_[h]);
}

LoadShareNode& Facility::node(HostId h) { return *nodes_.at(h); }

HostSelector& Facility::selector(HostId h) { return *selectors_.at(h); }

bool Facility::actually_idle(HostId h) {
  auto it = nodes_.find(h);
  return it != nodes_.end() && it->second->is_idle();
}

int Facility::idle_count() {
  int n = 0;
  for (auto& [h, node] : nodes_) {
    if (node->is_idle() && !node->reserved()) ++n;
  }
  return n;
}

}  // namespace sprite::ls
