#include "loadshare/shared_file.h"

#include <cstdio>
#include <sstream>

#include "kern/cluster.h"
#include "loadshare/node.h"
#include "util/assert.h"
#include "util/async.h"

namespace sprite::ls {

using fs::Bytes;
using sim::HostId;
using sim::Time;
using util::Err;
using util::Status;

namespace {

Bytes pad_record(const std::string& s) {
  Bytes out(s.begin(), s.end());
  out.resize(static_cast<std::size_t>(kLoadFileRecord), ' ');
  return out;
}

std::string to_string(const Bytes& b) { return std::string(b.begin(), b.end()); }

}  // namespace

// ---------------------------------------------------------------------------
// LoadFileUpdater
// ---------------------------------------------------------------------------

LoadFileUpdater::LoadFileUpdater(kern::Host& host, LoadShareNode& node,
                                 std::string path)
    : host_(host), node_(node), path_(std::move(path)) {}

void LoadFileUpdater::ensure_open(std::function<void()> then) {
  if (stream_) return then();
  if (opening_) return;
  opening_ = true;
  host_.fs().open(path_, fs::OpenFlags::create_rw(),
                  [this, then = std::move(then)](
                      util::Result<fs::StreamPtr> r) {
                    opening_ = false;
                    if (!r.is_ok()) return;
                    stream_ = *r;
                    then();
                  });
}

void LoadFileUpdater::start() {
  host_.cluster().sim().every(host_.cluster().costs().ls_update_period,
                              "ls_update", [this] { update_now(); });
}

void LoadFileUpdater::update_now() {
  ensure_open([this] {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%d %d %.3f %lld", host_.id(),
                  node_.is_idle() && !node_.reserved() ? 1 : 0, node_.load(),
                  static_cast<long long>(host_.cluster().sim().now().us()));
    const Status s =
        host_.fs().seek(stream_, host_.id() * kLoadFileRecord);
    SPRITE_CHECK(s.is_ok());
    host_.fs().write(stream_, pad_record(buf),
                     [](util::Result<std::int64_t>) {});
  });
}

// ---------------------------------------------------------------------------
// SharedFileSelector
// ---------------------------------------------------------------------------

SharedFileSelector::SharedFileSelector(
    kern::Host& host, std::string load_path, std::string claim_path,
    int num_hosts, std::function<bool(sim::HostId)> ground_truth_idle)
    : host_(host),
      load_path_(std::move(load_path)),
      claim_path_(std::move(claim_path)),
      num_hosts_(num_hosts),
      ground_truth_(std::move(ground_truth_idle)) {
  bind_metrics(host_.cluster().sim().trace(), host_.id());
}

void SharedFileSelector::ensure_open(std::function<void(Status)> then) {
  if (load_stream_ && claim_stream_) return then(Status::ok());
  host_.fs().open(
      load_path_, fs::OpenFlags::create_rw(),
      [this, then = std::move(then)](util::Result<fs::StreamPtr> r) mutable {
        if (!r.is_ok()) return then(r.status());
        load_stream_ = *r;
        host_.fs().open(claim_path_, fs::OpenFlags::create_rw(),
                        [this, then = std::move(then)](
                            util::Result<fs::StreamPtr> r2) {
                          if (!r2.is_ok()) return then(r2.status());
                          claim_stream_ = *r2;
                          then(Status::ok());
                        });
      });
}

void SharedFileSelector::request_hosts(int n, GrantCb cb) {
  note_request();
  const Time start = host_.cluster().sim().now();
  ensure_open([this, n, start, cb = std::move(cb)](Status s) mutable {
    if (!s.is_ok()) return cb({});
    // Read the whole availability file.
    Status se = host_.fs().seek(load_stream_, 0);
    SPRITE_CHECK(se.is_ok());
    host_.fs().read(
        load_stream_, num_hosts_ * kLoadFileRecord,
        [this, n, start, cb = std::move(cb)](util::Result<Bytes> r) mutable {
          if (!r.is_ok()) return cb({});
          std::vector<Candidate> cands;
          const Time now = host_.cluster().sim().now();
          const Time max_age = host_.cluster().costs().ls_update_period * 3.0;
          const std::string all = to_string(*r);
          for (std::int64_t rec = 0;
               (rec + 1) * kLoadFileRecord <=
               static_cast<std::int64_t>(all.size());
               ++rec) {
            std::istringstream in(all.substr(
                static_cast<std::size_t>(rec * kLoadFileRecord),
                static_cast<std::size_t>(kLoadFileRecord)));
            long h;
            int idle;
            double load;
            long long stamp;
            if (!(in >> h >> idle >> load >> stamp)) continue;
            if (!idle || static_cast<HostId>(h) == host_.id()) continue;
            if (now - Time::usec(stamp) > max_age) continue;
            cands.push_back({static_cast<HostId>(h), load});
          }
          std::sort(cands.begin(), cands.end(),
                    [](const Candidate& a, const Candidate& b) {
                      return a.load < b.load;
                    });
          auto got = std::make_shared<std::vector<HostId>>();
          util::async_loop([this, cands = std::move(cands), n, got, start,
                            cb = std::move(cb)](std::size_t i, auto next) {
            if (static_cast<int>(got->size()) >= n || i >= cands.size()) {
              note_grant_done(static_cast<std::int64_t>(got->size()),
                              (host_.cluster().sim().now() - start).ms());
              if (ground_truth_) {
                for (HostId h : *got)
                  if (!ground_truth_(h)) note_bad_grant();
              }
              cb(*got);
              return;
            }
            claim(cands[i].host, got, next);
          });
        });
  });
}

void SharedFileSelector::claim(HostId target,
                               std::shared_ptr<std::vector<HostId>> got,
                               std::function<void()> then) {
  // Read the claim record first: someone may already hold the host.
  Status se = host_.fs().seek(claim_stream_, target * kLoadFileRecord);
  SPRITE_CHECK(se.is_ok());
  host_.fs().read(
      claim_stream_, kLoadFileRecord,
      [this, target, got, then](util::Result<Bytes> r) {
        long long claimant = -1, stamp = 0;
        if (r.is_ok() && !r->empty()) {
          std::istringstream in(to_string(*r));
          in >> claimant >> stamp;
        }
        const Time now = host_.cluster().sim().now();
        const bool claimed =
            claimant >= 0 && now - Time::usec(stamp) <= Time::minutes(5);
        if (claimed) return then();
        // Write our claim, then read it back: last-writer-wins, and the
        // window between our write and the verification read is exactly the
        // race the thesis holds against this architecture.
        char buf[64];
        std::snprintf(buf, sizeof buf, "%d %lld", host_.id(),
                      static_cast<long long>(now.us()));
        Status se2 = host_.fs().seek(claim_stream_, target * kLoadFileRecord);
        SPRITE_CHECK(se2.is_ok());
        host_.fs().write(
            claim_stream_, pad_record(buf),
            [this, target, got, then](util::Result<std::int64_t> w) {
              if (!w.is_ok()) return then();
              Status se3 =
                  host_.fs().seek(claim_stream_, target * kLoadFileRecord);
              SPRITE_CHECK(se3.is_ok());
              host_.fs().read(
                  claim_stream_, kLoadFileRecord,
                  [this, target, got, then](util::Result<Bytes> rb) {
                    long long who = -1, st2 = 0;
                    if (rb.is_ok() && !rb->empty()) {
                      std::istringstream in(to_string(*rb));
                      in >> who >> st2;
                    }
                    if (who == host_.id()) got->push_back(target);
                    then();
                  });
            });
      });
}

void SharedFileSelector::release_host(HostId h) {
  ensure_open([this, h](Status s) {
    if (!s.is_ok()) return;
    Status se = host_.fs().seek(claim_stream_, h * kLoadFileRecord);
    SPRITE_CHECK(se.is_ok());
    host_.fs().write(claim_stream_, pad_record("-1 0"),
                     [](util::Result<std::int64_t>) {});
  });
}

}  // namespace sprite::ls
