// HostSelector: the client-side interface to a host-selection architecture.
//
// Four implementations reproduce the design space of thesis chapter 6:
// central server (migd), shared file, distributed probabilistic (MOSIX) and
// multicast query. All expose the same request/release API so experiment E6
// can compare them under identical request loads.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/ids.h"
#include "sim/time.h"
#include "trace/trace.h"

namespace sprite::ls {

class HostSelector {
 public:
  using GrantCb = std::function<void(std::vector<sim::HostId>)>;

  virtual ~HostSelector() = default;

  // Asks for up to `n` idle hosts. The callback fires exactly once with the
  // granted hosts (possibly empty — callers poll again later; none of the
  // architectures block, because a blocked reply cannot ride an RPC).
  virtual void request_hosts(int n, GrantCb cb) = 0;

  // Returns a granted host.
  virtual void release_host(sim::HostId h) = 0;

  // Hosts the facility reclaimed from this requester for fairness
  // (cooperative recall). The caller must stop dispatching to them; they do
  // NOT need to be released. Default: none (only the central architecture
  // recalls).
  virtual std::vector<sim::HostId> take_revoked() { return {}; }

  // Drops cached soft state (open streams to the facility's files or
  // pseudo-device) after the selector's host crashed and rebooted; the next
  // request reopens from scratch. Default: nothing cached.
  virtual void reset() {}

  // Statistics live in the registry under `ls.select.*`, attributed to the
  // requesting host: requested, host_granted, empty_grant, bad_grant (a
  // granted host that was in fact not idle — the stale-information failure
  // mode distributed state suffers from) and the grant_ms histogram.

 protected:
  // Registers the selector's metrics. Every subclass calls this from its
  // constructor, before the first request.
  void bind_metrics(trace::Registry& tr, sim::HostId host) {
    reg_ = &tr;
    host_id_ = host;
    c_requests_ = &tr.counter("ls.select.requested", host);
    c_granted_ = &tr.counter("ls.select.host_granted", host);
    c_empty_ = &tr.counter("ls.select.empty_grant", host);
    c_bad_ = &tr.counter("ls.select.bad_grant", host);
    h_latency_ = &tr.histogram("ls.select.grant_ms",
                               trace::default_latency_bounds_ms(), host);
  }

  void note_request() { c_requests_->inc(); }
  // One grant decision finished: `n` hosts after `ms` of selection latency.
  void note_grant_done(std::int64_t n, double ms) {
    c_granted_->inc(n);
    if (n == 0) c_empty_->inc();
    h_latency_->record(ms);
    if (reg_->tracing())
      reg_->instant("ls", n == 0 ? "grant empty" : "hosts granted", host_id_,
                    -1, {{"count", std::to_string(n)}});
  }
  void note_bad_grant() { c_bad_->inc(); }

 private:
  trace::Registry* reg_ = nullptr;
  sim::HostId host_id_ = sim::kInvalidHost;
  trace::Counter* c_requests_ = nullptr;
  trace::Counter* c_granted_ = nullptr;
  trace::Counter* c_empty_ = nullptr;
  trace::Counter* c_bad_ = nullptr;
  trace::LatencyHistogram* h_latency_ = nullptr;
};

}  // namespace sprite::ls
