// Distributed host-selection architectures (thesis §6.3.3–6.3.4).
//
// ProbabilisticSelector — MOSIX-style: every host maintains a load vector
// fed by periodic gossip to random peers, aged so newer data dominates.
// Selection is a purely local decision followed by a reservation RPC to the
// chosen host; stale vectors show up as refused reservations ("bad grants"),
// the cost of distributed state.
//
// MulticastSelector — stateless: the requester multicasts "who is idle?",
// idle hosts answer after a random backoff, and the requester reserves the
// first respondents. One cheap transmission per request, but every host pays
// to receive it, and there is no global assignment state.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "loadshare/node.h"
#include "loadshare/selector.h"
#include "loadshare/wire.h"

namespace sprite::kern {
class Host;
}

namespace sprite::ls {

// What both distributed architectures share: they pick candidates locally,
// then claim them with kReserve RPCs one at a time, and release the same way.
class ReservingSelector : public HostSelector {
 public:
  void release_host(sim::HostId h) override;

 protected:
  explicit ReservingSelector(kern::Host& host);

  // Reserves hosts from `order`, in order, until `n` are granted or the
  // candidates run out; a refusal counts as a bad grant. Then records the
  // grant (latency measured from `start`) and calls `cb` once.
  void reserve_in_order(std::vector<sim::HostId> order, int n, sim::Time start,
                        GrantCb cb);

  kern::Host& host_;
};

class ProbabilisticSelector : public ReservingSelector {
 public:
  ProbabilisticSelector(kern::Host& host, LoadShareNode& node);

  void request_hosts(int n, GrantCb cb) override;

 private:
  LoadShareNode& node_;
};

class MulticastSelector : public ReservingSelector {
 public:
  MulticastSelector(kern::Host& host, LoadShareNode& node);

  void request_hosts(int n, GrantCb cb) override;

 private:
  LoadShareNode& node_;
  std::int64_t next_seq_ = 1;
  // Offers collected for the in-flight query (one at a time per selector).
  std::int64_t current_seq_ = 0;
  std::vector<sim::HostId> offers_;
};

}  // namespace sprite::ls
