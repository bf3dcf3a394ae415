#include "loadshare/node.h"

#include "kern/cluster.h"
#include "migration/manager.h"
#include "util/assert.h"
#include "util/log.h"

namespace sprite::ls {

using rpc::Reply;
using rpc::Request;
using rpc::ServiceId;
using sim::HostId;
using sim::Time;
using util::Err;
using util::Status;

LoadShareNode::LoadShareNode(kern::Host& host)
    : host_(host), rng_(host.cluster().sim().fork_rng()) {
  trace::Registry& tr = host_.cluster().sim().trace();
  c_reserves_granted_ = &tr.counter("ls.reserve.granted", host_.id());
  c_reserves_refused_ = &tr.counter("ls.reserve.refused", host_.id());
  c_evictions_ = &tr.counter("ls.eviction.triggered", host_.id());
  c_crash_releases_ = &tr.counter("ls.eviction.crash", host_.id());
  c_gossip_sent_ = &tr.counter("ls.gossip.sent", host_.id());
  c_offers_sent_ = &tr.counter("ls.offer.sent", host_.id());
}

sim::HostId LoadShareNode::id() const { return host_.id(); }

void LoadShareNode::register_services() {
  host_.rpc().register_service(
      ServiceId::kLoadShare,
      [this](HostId src, const Request& req, std::function<void(Reply)> r) {
        handle_rpc(src, req, std::move(r));
      });
}

double LoadShareNode::load() const { return host_.cpu().load_average(); }

bool LoadShareNode::is_idle() const {
  const auto& costs = host_.cluster().costs();
  const Time now = host_.cluster().sim().now();
  const Time since_input = now - host_.last_user_input();
  return since_input >= costs.idle_input_threshold &&
         host_.cpu().load_average() < costs.idle_load_threshold;
}

util::Status LoadShareNode::try_reserve(HostId requester) {
  if (reserved()) {
    c_reserves_refused_->inc();
    return Status(Err::kBusy, "already reserved");
  }
  if (!is_idle()) {
    c_reserves_refused_->inc();
    return Status(Err::kBusy, "not idle");
  }
  reserved_by_ = requester;
  // Anticipated load: report ourselves busier before the migrated work
  // arrives, so other selectors do not flood this host (MOSIX-style).
  host_.cpu().set_load_bias(host_.cpu().load_bias() + 1.0);
  c_reserves_granted_->inc();
  return Status::ok();
}

void LoadShareNode::release(HostId requester) {
  if (reserved_by_ != requester) return;
  reserved_by_ = sim::kInvalidHost;
  host_.cpu().set_load_bias(
      std::max(0.0, host_.cpu().load_bias() - 1.0));
}

void LoadShareNode::crash_reset() {
  reserved_by_ = sim::kInvalidHost;
  vector_.clear();
  evicting_ = false;
}

void LoadShareNode::peer_crashed(HostId peer) {
  vector_.erase(peer);
  if (reserved_by_ != peer) return;
  release(peer);
  c_crash_releases_->inc();
  if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
    tr.instant("ls", "reservation released: reserver crashed", host_.id(), -1,
               {{"reserver", std::to_string(peer)}});
}

void LoadShareNode::enable_autoeviction(std::function<void()> on_user_return) {
  on_user_return_ = std::move(on_user_return);
  // Register the latency histogram now, not at first eviction: exports and
  // the metric inventory must see it even on runs where no owner returned.
  host_.cluster().sim().trace().histogram(
      "ls.eviction.latency_ms", trace::default_latency_bounds_ms(), host_.id());
  host_.set_input_observer([this] {
    if (on_user_return_) on_user_return_();
    if (evicting_) return;
    if (host_.procs().foreign_processes().empty()) return;
    evicting_ = true;
    c_evictions_->inc();
    if (trace::Registry& tr = host_.cluster().sim().trace(); tr.tracing())
      tr.instant("ls", "user returned: evict foreign", host_.id(), -1,
                 {{"foreign", std::to_string(
                                  host_.procs().foreign_processes().size())}});
    // The owner is waiting: time from the keystroke to the last foreign
    // process gone is the latency the thesis promises stays sub-second.
    const Time t0 = host_.cluster().sim().now();
    host_.mig().evict_all_foreign([this, t0](int) {
      evicting_ = false;
      host_.cluster().sim().trace().histogram(
          "ls.eviction.latency_ms", trace::default_latency_bounds_ms(),
          host_.id()).record(host_.cluster().sim().now() - t0);
    });
  });
}

HostLoad LoadShareNode::own_entry() const {
  HostLoad e;
  e.host = host_.id();
  e.load = load();
  e.idle = is_idle() && !reserved();
  e.stamped = host_.cluster().sim().now();
  return e;
}

void LoadShareNode::start_gossip(std::vector<HostId> peers) {
  gossip_peers_ = std::move(peers);
  const auto& costs = host_.cluster().costs();
  host_.cluster().sim().every(costs.ls_gossip_period, "ls_gossip",
                              [this] { gossip_tick(); });
}

void LoadShareNode::gossip_tick() {
  const auto& costs = host_.cluster().costs();
  const Time now = host_.cluster().sim().now();

  // Refresh our own entry and age out stale ones.
  vector_[host_.id()] = own_entry();
  for (auto it = vector_.begin(); it != vector_.end();) {
    if (now - it->second.stamped > costs.ls_entry_max_age &&
        it->first != host_.id()) {
      it = vector_.erase(it);
    } else {
      ++it;
    }
  }

  if (gossip_peers_.empty()) return;
  // Send our vector (own entry plus a few cached ones) to random peers.
  for (int k = 0; k < costs.ls_gossip_fanout; ++k) {
    const HostId peer =
        gossip_peers_[rng_.index(gossip_peers_.size())];
    if (peer == host_.id()) continue;
    auto body = std::make_shared<GossipReq>();
    for (const auto& [h, e] : vector_) {
      body->entries.push_back(e);
      if (body->entries.size() >= 8) break;
    }
    c_gossip_sent_->inc();
    host_.rpc().call(peer, ServiceId::kLoadShare,
                     static_cast<int>(LsOp::kGossip), body,
                     [](util::Result<Reply>) {});
  }
}

void LoadShareNode::enable_multicast_responder() { responder_enabled_ = true; }

void LoadShareNode::handle_rpc(HostId /*src*/, const Request& req,
                               std::function<void(Reply)> respond) {
  switch (static_cast<LsOp>(req.op)) {
    case LsOp::kGossip: {
      auto body = rpc::body_cast<GossipReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      for (const auto& e : body->entries) {
        if (e.host == host_.id()) continue;
        auto it = vector_.find(e.host);
        if (it == vector_.end() || it->second.stamped < e.stamped)
          vector_[e.host] = e;
      }
      respond(Reply{Status::ok(), nullptr});
      return;
    }
    case LsOp::kReserve: {
      auto body = rpc::body_cast<ReserveReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      respond(Reply{try_reserve(body->requester), nullptr});
      return;
    }
    case LsOp::kRelease: {
      auto body = rpc::body_cast<ReserveReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      release(body->requester);
      respond(Reply{Status::ok(), nullptr});
      return;
    }
    case LsOp::kQueryIdle: {
      auto body = rpc::body_cast<QueryIdleReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      respond(Reply{Status::ok(), nullptr});
      if (!responder_enabled_ || !is_idle() || reserved()) return;
      // Respond after a random backoff so the requester is not flooded by
      // simultaneous replies from every idle host.
      const auto& costs = host_.cluster().costs();
      const Time delay = Time::usec(static_cast<std::int64_t>(
          rng_.uniform(0.0, static_cast<double>(
                                costs.ls_multicast_backoff.us()))));
      host_.cluster().sim().after(
          delay, "ls_offer", [this, requester = body->requester,
                              seq = body->seq] {
            if (!is_idle() || reserved()) return;  // state changed meanwhile
            auto offer = std::make_shared<OfferReq>();
            offer->host = host_.id();
            offer->seq = seq;
            offer->load = load();
            c_offers_sent_->inc();
            host_.rpc().call(requester, ServiceId::kLoadShare,
                             static_cast<int>(LsOp::kOffer), offer,
                             [](util::Result<Reply>) {});
          });
      return;
    }
    case LsOp::kOffer: {
      auto body = rpc::body_cast<OfferReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      if (offer_sink_) offer_sink_(*body);
      respond(Reply{Status::ok(), nullptr});
      return;
    }
  }
  respond(Reply{Status(Err::kNotSupported, "bad loadshare op"), nullptr});
}

}  // namespace sprite::ls
