// pmake_farm: 4 controllers running back-to-back pmake builds on 24
// workstations, jobs placed by exec-time migration through the central migd.
//
// Why: read-heavy on the file service (name lookups and client block-cache
// reads of 28 shared headers) against a saturated server, plus the
// load-sharing request/grant path and exec-time migration with empty address
// spaces. It does no VM transfer.
#include <string>
#include <vector>

#include "apps/pmake.h"
#include "bench.h"
#include "core/sprite.h"

namespace perfbench {
namespace {

using sprite::apps::Pmake;
using sprite::apps::Target;
using sprite::sim::Time;

// Replaces a leading "/src/" with `root`.
std::string rebase(const std::string& path, const std::string& root) {
  const std::string src = "/src/";
  return path.rfind(src, 0) == 0 ? root + path.substr(src.size()) : path;
}

class PmakeFarm final : public Scope {
 public:
  explicit PmakeFarm(const Options& o)
      : seed_(o.seed),
        workstations_(o.small ? 8 : 24),
        controllers_(o.small ? 2 : 4),
        builds_per_ctl_(o.small ? 1 : 4),
        objects_(o.small ? 12 : 48),
        headers_(o.small ? 8 : 28) {}

  void setup(SpanLog& spans, std::uint64_t parent, Outcome& out) override {
    double t = host_now_s();
    {
      ScopedSpan s(spans, "SpriteCluster (cluster build)", parent);
      sprite::core::SpriteCluster::Options co;
      co.workstations = workstations_;
      co.seed = seed_;
      cluster_ = std::make_unique<sprite::core::SpriteCluster>(co);
    }
    out.setup_ms["cluster"] = (host_now_s() - t) * 1e3;

    // Inputs from the seed: each controller's objects get compile CPU
    // demands spread over 2-6 s in a seeded order, the same for every build
    // of that tree.
    t = host_now_s();
    sprite::util::Rng rng(seed_);
    auto* server = cluster_->kernel().fs_primary().fs_server();
    for (int c = 0; c < controllers_; ++c) {
      auto graph = sprite::apps::make_compile_graph(
          objects_, headers_, Time::sec(4), Time::sec(6));
      const auto cpu_ms = shuffled_spread(2000, 6000, objects_, rng);
      for (int i = 0; i < objects_; ++i)
        graph[static_cast<std::size_t>(i)].cpu =
            Time::msec(cpu_ms[static_cast<std::size_t>(i)]);
      const std::string tree = "/src/c" + std::to_string(c) + "/";
      for (int b = 0; b < builds_per_ctl_; ++b) {
        // Sources are per controller; every build writes its own outputs,
        // so each build's link target can be checked afterwards.
        const std::string outdir = tree + "b" + std::to_string(b) + "/";
        std::vector<Target> g = graph;
        for (Target& target : g) {
          target.name = rebase(target.name, outdir);
          for (auto& d : target.deps)
            d = d.size() > 2 && d.compare(d.size() - 2, 2, ".c") == 0
                    ? rebase(d, tree)
                    : rebase(d, outdir);
        }
        server->mkdir_p(outdir.substr(0, outdir.size() - 1));
        Pmake::Options po;
        po.controller = cluster_->workstation(c);
        po.max_jobs = workstations_;
        po.facility = &cluster_->load_sharing();
        builds_[c].push_back(std::make_unique<Pmake>(cluster_->kernel(), po,
                                                     std::move(g)));
        ScopedSpan s(spans, "Pmake::prepare", parent);
        builds_[c].back()->prepare();
        links_.push_back(outdir + "prog");
      }
    }
    out.setup_ms["install"] = (host_now_s() - t) * 1e3;

    t = host_now_s();
    {
      ScopedSpan s(spans, "SpriteCluster::warm_up", parent);
      cluster_->warm_up();
    }
    out.setup_ms["warmup"] = (host_now_s() - t) * 1e3;
  }

  void run(SpanLog& spans, std::uint64_t parent) override {
    spans_ = &spans;
    parent_ = parent;
    for (int c = 0; c < controllers_; ++c) start_build(c, 0);
    cluster_->kernel().run_until_done(
        [this] { return finished_ == controllers_ * builds_per_ctl_; });
  }

  void finish(Outcome& out) override {
    // Let delayed writes reach the server before checking the outputs.
    cluster_->run_for(Time::sec(40));
    auto* server = cluster_->kernel().fs_primary().fs_server();
    int missing = 0;
    for (const auto& link : links_) {
      auto st = server->stat_path(link);
      if (!st.is_ok() || st->size != kLinkBytes) {
        ++missing;
        out.problems.push_back("link target " + link +
                               (st.is_ok() ? " has size " +
                                                 std::to_string(st->size)
                                           : " missing"));
      }
    }
    int jobs = 0, remote = 0, failed = 0;
    for (const auto& r : results_) {
      out.sim.samples["makespan_s"].push_back(r.makespan.s());
      jobs += r.jobs;
      remote += r.remote_jobs;
      failed += r.failed_jobs;
    }
    out.attempted = jobs;
    out.failed = failed + missing;
    out.sim.counts["pmake.jobs"] += jobs;
    out.sim.ratios["pmake.remote_frac"].num += remote;
    out.sim.ratios["pmake.remote_frac"].den += jobs;
    out.notes.push_back(std::to_string(links_.size() - missing) + " of " +
                        std::to_string(links_.size()) +
                        " link targets present with their expected size; " +
                        std::to_string(failed) + " failed jobs");
  }

  sprite::kern::Cluster& cluster() override { return cluster_->kernel(); }

 private:
  static constexpr std::int64_t kLinkBytes = 256 * 1024;

  // Closed loop: a controller starts its next build when the last finishes.
  void start_build(int c, int b) {
    const std::uint64_t span = spans_->begin(
        "Pmake::run c" + std::to_string(c) + " b" + std::to_string(b),
        parent_);
    builds_[c][static_cast<std::size_t>(b)]->run(
        [this, c, b, span](Pmake::Result r) {
          spans_->end(span);
          results_.push_back(r);
          ++finished_;
          if (b + 1 < builds_per_ctl_) start_build(c, b + 1);
        });
  }

  std::uint64_t seed_;
  int workstations_, controllers_, builds_per_ctl_, objects_, headers_;
  std::unique_ptr<sprite::core::SpriteCluster> cluster_;
  std::map<int, std::vector<std::unique_ptr<Pmake>>> builds_;  // per controller
  std::vector<std::string> links_;
  std::vector<Pmake::Result> results_;
  int finished_ = 0;
  SpanLog* spans_ = nullptr;
  std::uint64_t parent_ = 0;
};

}  // namespace

std::unique_ptr<Scope> make_pmake_farm(const Options& o) {
  return std::make_unique<PmakeFarm>(o);
}

}  // namespace perfbench
