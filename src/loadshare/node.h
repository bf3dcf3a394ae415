// LoadShareNode: the per-workstation half of load sharing.
//
// Tracks whether this host is *available* in Sprite's sense — no user input
// for the threshold interval AND load average below the threshold — serves
// the kLoadShare RPC protocol (reservation, gossip, multicast queries), and
// triggers the two owner-protection actions when the user returns: evict all
// foreign processes home, and announce not-idle.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "loadshare/wire.h"
#include "rpc/rpc.h"
#include "sim/costs.h"
#include "util/rng.h"
#include "util/status.h"

namespace sprite::kern {
class Host;
}

namespace sprite::ls {

class LoadShareNode {
 public:
  explicit LoadShareNode(kern::Host& host);

  void register_services();

  sim::HostId id() const;

  // ---- Availability ----
  bool is_idle() const;
  bool reserved() const { return reserved_by_ != sim::kInvalidHost; }
  sim::HostId reserved_by() const { return reserved_by_; }
  double load() const;

  // Local reservation bookkeeping (also reachable via kReserve RPC).
  // Reserving adds anticipated load (flood prevention, as in MOSIX).
  util::Status try_reserve(sim::HostId requester);
  void release(sim::HostId requester);

  // ---- Owner protection ----
  // Hook user input: evict foreign processes and call `on_user_return`
  // (used by architectures to announce not-idle immediately).
  void enable_autoeviction(std::function<void()> on_user_return = nullptr);

  // ---- Distributed architectures ----
  // MOSIX-style gossip: every gossip period, send our vector to `fanout`
  // random peers; entries age out.
  void start_gossip(std::vector<sim::HostId> peers);
  const std::map<sim::HostId, HostLoad>& load_vector() const {
    return vector_;
  }

  // Multicast: answer kQueryIdle with a delayed kOffer when idle.
  void enable_multicast_responder();

  // Requester-side sink for kOffer messages (set by MulticastSelector).
  void set_offer_sink(std::function<void(const OfferReq&)> sink) {
    offer_sink_ = std::move(sink);
  }

  // ---- Crash support ----
  // This host crashed: the reservation and the cached load vector die with
  // it. No load-bias adjustment — the CPU was reset wholesale.
  void crash_reset();
  // A peer crashed: drop its gossip entry, and if it held our reservation,
  // clear it so this host becomes available again instead of staying
  // reserved by a ghost forever.
  void peer_crashed(sim::HostId peer);

 private:
  void handle_rpc(sim::HostId src, const rpc::Request& req,
                  std::function<void(rpc::Reply)> respond);
  void gossip_tick();
  HostLoad own_entry() const;

  kern::Host& host_;
  util::Rng rng_;
  sim::HostId reserved_by_ = sim::kInvalidHost;
  bool responder_enabled_ = false;
  std::vector<sim::HostId> gossip_peers_;
  std::map<sim::HostId, HostLoad> vector_;
  std::function<void(const OfferReq&)> offer_sink_;
  std::function<void()> on_user_return_;
  bool evicting_ = false;

  // Registry-backed metrics (trace/trace.h).
  trace::Counter* c_reserves_granted_;
  trace::Counter* c_reserves_refused_;
  trace::Counter* c_evictions_;
  // Reservations cleared because the reserver crashed — distinct from
  // owner-return evictions (ls.eviction.triggered).
  trace::Counter* c_crash_releases_;
  trace::Counter* c_gossip_sent_;
  trace::Counter* c_offers_sent_;
};

}  // namespace sprite::ls
