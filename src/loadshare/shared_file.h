// Shared-file host selection (thesis §6.3.1): availability lives in a file
// on the shared FS; selection decisions are made by the requesters.
//
// Every workstation rewrites its 64-byte record each update period, and
// requesters read the whole file, pick a host, and write a claim record.
// Because the file is concurrently write-shared, Sprite's consistency
// protocol disables caching on it and every access becomes server traffic —
// which is precisely why Sprite abandoned this architecture: the experiment
// measures the latency and the server load it induces, plus the races
// (double grants) its unsynchronized claims allow.
#pragma once

#include <cstdint>
#include <string>

#include "fs/client.h"
#include "loadshare/selector.h"
#include "util/status.h"

namespace sprite::kern {
class Host;
}

namespace sprite::ls {

class LoadShareNode;

inline constexpr std::int64_t kLoadFileRecord = 64;

// Periodically writes this host's availability record.
class LoadFileUpdater {
 public:
  LoadFileUpdater(kern::Host& host, LoadShareNode& node, std::string path);
  void start();
  void update_now();

  // Drops the cached stream (and any orphaned in-flight open) after a crash
  // so the next update reopens against the rebooted file server.
  void reset() {
    stream_ = nullptr;
    opening_ = false;
  }

 private:
  void ensure_open(std::function<void()> then);

  kern::Host& host_;
  LoadShareNode& node_;
  std::string path_;
  fs::StreamPtr stream_;
  bool opening_ = false;
};

class SharedFileSelector : public HostSelector {
 public:
  SharedFileSelector(kern::Host& host, std::string load_path,
                     std::string claim_path, int num_hosts,
                     std::function<bool(sim::HostId)> ground_truth_idle);

  void request_hosts(int n, GrantCb cb) override;
  void release_host(sim::HostId h) override;

  void reset() override {
    load_stream_ = nullptr;
    claim_stream_ = nullptr;
  }

 private:
  struct Candidate {
    sim::HostId host;
    double load;
  };
  void ensure_open(std::function<void(util::Status)> then);
  // One step of the claim loop: reads `target`'s claim record and, if it is
  // free, writes ours and reads it back, adding `target` to `got` when our
  // claim stuck. Calls `then` when done either way.
  void claim(sim::HostId target,
             std::shared_ptr<std::vector<sim::HostId>> got,
             std::function<void()> then);

  kern::Host& host_;
  std::string load_path_;
  std::string claim_path_;
  int num_hosts_;
  fs::StreamPtr load_stream_;
  fs::StreamPtr claim_stream_;
  std::function<bool(sim::HostId)> ground_truth_;
};

}  // namespace sprite::ls
