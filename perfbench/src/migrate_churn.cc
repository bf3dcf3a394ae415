// migrate_churn: a closed loop keeping up to 4 live migrations in
// flight over 32 processes that each rewrite a 2 MB heap, with periodic
// owner returns (evict_all_foreign) and no load sharing.
//
// Why: it uses the file-service and migration layers the other way round
// from pmake_farm — write-heavy (flushes and page-ins) with no retransmits —
// and covers the vm dirty planes, the xfer engine and the shared-medium
// bandwidth model, while load sharing and recov stay idle.
#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "core/sprite.h"
#include "proc/script.h"

namespace perfbench {
namespace {

using sprite::mig::VmStrategy;
using sprite::proc::Pid;
using sprite::sim::HostId;
using sprite::sim::Time;

constexpr std::int64_t kHeapPages = 512;  // 2 MB of 4 KB pages
constexpr int kMaxInFlight = 4;
constexpr int kEvictEvery = 4;  // completed migrations per owner return
constexpr VmStrategy kStrategies[] = {
    VmStrategy::kSpriteFlush, VmStrategy::kIterPreCopy, VmStrategy::kPostCopy,
    VmStrategy::kContentAddr};

// A writer that touches its whole heap, then rewrites args[0] pages per
// second forever, in 50 ms ticks sliding across the heap.
sprite::proc::ProgramImage writer_image() {
  sprite::proc::ProgramImage img;
  img.code_pages = 16;
  img.heap_pages = kHeapPages;
  img.stack_pages = 4;
  img.factory = [](const std::vector<std::string>& args) {
    const std::int64_t per_tick =
        std::clamp<std::int64_t>(std::stoll(args.at(0)) / 20, 1, 64);
    const std::int64_t span = kHeapPages - per_tick;
    sprite::proc::ScriptBuilder b;
    b.act(sprite::proc::Touch{sprite::vm::Segment::kHeap, 0, kHeapPages, true});
    b.step([per_tick, span](sprite::proc::ScriptProgram::Ctx& c) {
      const std::int64_t i = c.locals["tick"]++;
      return sprite::proc::Action{sprite::proc::Touch{
          sprite::vm::Segment::kHeap, (i * per_tick) % span, per_tick, true}};
    });
    b.step([](sprite::proc::ScriptProgram::Ctx& c) {
      c.jump(1);
      return sprite::proc::Action{sprite::proc::Compute{Time::msec(50)}};
    });
    return b.build();
  };
  return img;
}

class MigrateChurn final : public Scope {
 public:
  explicit MigrateChurn(const Options& o)
      : seed_(o.seed),
        workstations_(o.small ? 4 : 16),
        processes_(o.small ? 8 : 32),
        migrations_(o.small ? 32 : 384) {}

  void setup(SpanLog& spans, std::uint64_t parent, Outcome& out) override {
    double t = host_now_s();
    {
      ScopedSpan s(spans, "SpriteCluster (cluster build)", parent);
      sprite::core::SpriteCluster::Options co;
      co.workstations = workstations_;
      co.seed = seed_;
      co.enable_load_sharing = false;
      cluster_ = std::make_unique<sprite::core::SpriteCluster>(co);
    }
    out.setup_ms["cluster"] = (host_now_s() - t) * 1e3;

    t = host_now_s();
    {
      ScopedSpan s(spans, "SpriteCluster::install_program", parent);
      cluster_->install_program("/bin/writer", writer_image());
    }
    for (int w = 0; w < workstations_; ++w)
      cluster_->host(cluster_->workstation(w))
          .mig()
          .set_strategy(kStrategies[w % 4]);
    // Inputs from the seed: the processes' rewrite rates, spread over
    // 40-160 pages/s in a seeded order.
    sprite::util::Rng rng(seed_);
    const auto rates = shuffled_spread(40, 160, processes_, rng);
    for (int i = 0; i < processes_; ++i) {
      const auto rate = rates[static_cast<std::size_t>(i)];
      ScopedSpan s(spans, "SpriteCluster::spawn", parent);
      pids_.push_back(cluster_->spawn(cluster_->workstation(i % workstations_),
                                      "/bin/writer", {std::to_string(rate)}));
    }
    out.setup_ms["install"] = (host_now_s() - t) * 1e3;

    t = host_now_s();
    {
      ScopedSpan s(spans, "SpriteCluster::run_for (warm-up)", parent);
      cluster_->run_for(Time::sec(10));  // heaps resident and dirty
    }
    out.setup_ms["warmup"] = (host_now_s() - t) * 1e3;
  }

  void run(SpanLog& spans, std::uint64_t parent) override {
    spans_ = &spans;
    parent_ = parent;
    top_up();
    cluster_->kernel().run_until_done([this] {
      return started_ == migrations_ && in_flight_.empty() &&
             evicting_ == sim_none();
    });
  }

  void finish(Outcome& out) override {
    // Every pid is resident on exactly one host: the one its home record
    // names.
    for (Pid pid : pids_) {
      const HostId loc = cluster_->locate(pid);
      std::vector<HostId> resident;
      for (std::size_t h = 0; h < cluster_->kernel().num_hosts(); ++h)
        if (cluster_->host(static_cast<HostId>(h)).procs().find(pid))
          resident.push_back(static_cast<HostId>(h));
      if (resident.size() != 1 || resident[0] != loc)
        out.problems.push_back("pid " + std::to_string(pid) + " resident on " +
                               std::to_string(resident.size()) +
                               " hosts; home record names host " +
                               std::to_string(loc));
    }
    out.attempted = attempted_;
    out.failed = failed_;
    std::vector<double>& ev = out.sim.samples["evict_ms"];
    ev.insert(ev.end(), evict_ms_.begin(), evict_ms_.end());
    out.notes.push_back(std::to_string(migrations_) + " migrations, " +
                        std::to_string(evict_ms_.size()) +
                        " owner returns; residency check over " +
                        std::to_string(pids_.size()) + " pids");
    for (const auto& p : callback_problems_) out.problems.push_back(p);
  }

  sprite::kern::Cluster& cluster() override { return cluster_->kernel(); }

 private:
  static HostId sim_none() { return sprite::sim::kInvalidHost; }

  bool host_busy(HostId h) const {
    if (h == evicting_) return true;
    for (const auto& [pid, ends] : in_flight_)
      if (ends.first == h || ends.second == h) return true;
    return false;
  }

  // Tops the closed loop up to kMaxInFlight, moving processes round-robin to
  // the next host in rotation. Processes on the host being evicted, and that
  // host as a target, are skipped until the owner return completes.
  void top_up() {
    const int n = static_cast<int>(pids_.size());
    for (int scanned = 0;
         started_ < migrations_ &&
         static_cast<int>(in_flight_.size()) < kMaxInFlight && scanned < n;
         ++scanned) {
      const Pid pid = pids_[static_cast<std::size_t>(cursor_)];
      cursor_ = (cursor_ + 1) % n;
      const HostId loc = cluster_->locate(pid);
      if (in_flight_.count(pid) || loc == evicting_) continue;
      HostId target = sim_none();
      for (int k = 0; k < workstations_ && target == sim_none(); ++k) {
        const HostId cand = cluster_->workstation(
            (rotation_++ + 1) % workstations_);
        if (cand != loc && cand != evicting_) target = cand;
      }
      auto pcb = cluster_->host(loc).procs().find(pid);
      if (!pcb || target == sim_none()) continue;
      scanned = 0;
      ++started_;
      ++attempted_;
      in_flight_[pid] = {loc, target};
      const std::uint64_t span =
          spans_->begin("MigrationManager::migrate", parent_);
      cluster_->host(loc).mig().migrate(
          pcb, target, [this, pid, span](sprite::util::Status s) {
            spans_->end(span);
            in_flight_.erase(pid);
            if (!s.is_ok()) {
              ++failed_;
              callback_problems_.push_back("migrate pid " +
                                           std::to_string(pid) + ": " +
                                           s.to_string());
            }
            if (++completed_ % kEvictEvery == 0) owner_returns();
            top_up();
          });
    }
  }

  // An owner returns to the next host in rotation that holds foreign
  // processes and is not party to a migration in flight.
  void owner_returns() {
    if (evicting_ != sim_none()) return;
    for (int k = 0; k < workstations_; ++k) {
      const HostId h =
          cluster_->workstation((evict_cursor_ + k) % workstations_);
      const auto foreign = cluster_->host(h).procs().foreign_processes();
      if (foreign.empty() || host_busy(h)) continue;
      evict_cursor_ = (evict_cursor_ + k + 1) % workstations_;
      evicting_ = h;
      const int expected = static_cast<int>(foreign.size());
      attempted_ += expected;
      const Time t0 = cluster_->sim().now();
      const std::uint64_t span =
          spans_->begin("MigrationManager::evict_all_foreign", parent_);
      cluster_->host(h).mig().evict_all_foreign(
          [this, h, expected, t0, span](int evicted) {
            spans_->end(span);
            evict_ms_.push_back((cluster_->sim().now() - t0).ms());
            if (evicted != expected) {
              failed_ += expected - evicted;
              callback_problems_.push_back(
                  "evict host " + std::to_string(h) + ": " +
                  std::to_string(evicted) + " of " + std::to_string(expected));
            }
            evicting_ = sim_none();
            top_up();
          });
      return;
    }
  }

  std::uint64_t seed_;
  int workstations_, processes_, migrations_;
  std::unique_ptr<sprite::core::SpriteCluster> cluster_;
  std::vector<Pid> pids_;
  std::map<Pid, std::pair<HostId, HostId>> in_flight_;  // pid -> (from, to)
  HostId evicting_ = sprite::sim::kInvalidHost;
  int cursor_ = 0, rotation_ = 0, evict_cursor_ = 0;
  int started_ = 0, completed_ = 0;
  std::int64_t attempted_ = 0, failed_ = 0;
  std::vector<double> evict_ms_;
  std::vector<std::string> callback_problems_;
  SpanLog* spans_ = nullptr;
  std::uint64_t parent_ = 0;
};

}  // namespace

std::unique_ptr<Scope> make_migrate_churn(const Options& o) {
  return std::make_unique<MigrateChurn>(o);
}

}  // namespace perfbench
