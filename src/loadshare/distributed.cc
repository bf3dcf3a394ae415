#include "loadshare/distributed.h"

#include <algorithm>

#include "kern/cluster.h"
#include "util/assert.h"
#include "util/async.h"

namespace sprite::ls {

using rpc::Reply;
using rpc::ServiceId;
using sim::HostId;
using sim::Time;
using util::Status;

// ---------------------------------------------------------------------------
// ReservingSelector
// ---------------------------------------------------------------------------

ReservingSelector::ReservingSelector(kern::Host& host) : host_(host) {
  bind_metrics(host_.cluster().sim().trace(), host_.id());
}

void ReservingSelector::reserve_in_order(std::vector<HostId> order, int n,
                                         Time start, GrantCb cb) {
  auto got = std::make_shared<std::vector<HostId>>();
  util::async_loop([this, order = std::move(order), n, got, start,
                    cb = std::move(cb)](std::size_t i, auto next) {
    if (static_cast<int>(got->size()) >= n || i >= order.size()) {
      note_grant_done(static_cast<std::int64_t>(got->size()),
                      (host_.cluster().sim().now() - start).ms());
      cb(*got);
      return;
    }
    const HostId target = order[i];
    auto body = std::make_shared<ReserveReq>();
    body->requester = host_.id();
    host_.rpc().call(
        target, ServiceId::kLoadShare, static_cast<int>(LsOp::kReserve), body,
        [this, got, target, next](util::Result<Reply> r) {
          if (r.is_ok() && r->status.is_ok()) {
            got->push_back(target);
          } else {
            // The host refused: our information was stale, or another
            // requester claimed it first.
            note_bad_grant();
          }
          next();
        });
  });
}

void ReservingSelector::release_host(HostId h) {
  auto body = std::make_shared<ReserveReq>();
  body->requester = host_.id();
  host_.rpc().call(h, ServiceId::kLoadShare,
                   static_cast<int>(LsOp::kRelease), body,
                   [](util::Result<Reply>) {});
}

// ---------------------------------------------------------------------------
// ProbabilisticSelector
// ---------------------------------------------------------------------------

ProbabilisticSelector::ProbabilisticSelector(kern::Host& host,
                                             LoadShareNode& node)
    : ReservingSelector(host), node_(node) {}

void ProbabilisticSelector::request_hosts(int n, GrantCb cb) {
  note_request();
  const Time start = host_.cluster().sim().now();
  const Time now = start;
  const Time max_age = host_.cluster().costs().ls_entry_max_age;

  // Purely local decision from the (possibly stale) gossip vector.
  struct Cand {
    HostId host;
    double load;
  };
  std::vector<Cand> cands;
  for (const auto& [h, e] : node_.load_vector()) {
    if (h == host_.id() || !e.idle) continue;
    if (now - e.stamped > max_age) continue;
    cands.push_back({h, e.load});
  }
  std::sort(cands.begin(), cands.end(),
            [](const Cand& a, const Cand& b) { return a.load < b.load; });

  std::vector<HostId> order;
  for (const auto& c : cands) order.push_back(c.host);
  reserve_in_order(std::move(order), n, start, std::move(cb));
}

// ---------------------------------------------------------------------------
// MulticastSelector
// ---------------------------------------------------------------------------

MulticastSelector::MulticastSelector(kern::Host& host, LoadShareNode& node)
    : ReservingSelector(host), node_(node) {
  node_.set_offer_sink([this](const OfferReq& offer) {
    if (offer.seq != current_seq_) return;  // stale query
    offers_.push_back(offer.host);
  });
}

void MulticastSelector::request_hosts(int n, GrantCb cb) {
  note_request();
  const Time start = host_.cluster().sim().now();
  current_seq_ = next_seq_++;
  offers_.clear();

  auto body = std::make_shared<QueryIdleReq>();
  body->requester = host_.id();
  body->seq = current_seq_;
  host_.rpc().multicast(ServiceId::kLoadShare,
                        static_cast<int>(LsOp::kQueryIdle), body);

  // Collect offers for the backoff window plus slack, then reserve the
  // earliest respondents.
  const Time window =
      host_.cluster().costs().ls_multicast_backoff + Time::msec(15);
  host_.cluster().sim().after(window, [this, n, start, cb = std::move(cb)] {
    current_seq_ = 0;  // stop collecting
    std::vector<HostId> offers = std::move(offers_);
    offers_.clear();
    reserve_in_order(std::move(offers), n, start, std::move(cb));
  });
}

}  // namespace sprite::ls
