// E19 — live-transfer engine matrix: strategy × dirty rate × link bandwidth
// (grown out of E2, thesis §4.2.1 / §2.3.3; the legacy four still appear as
// rows, now served by the same src/xfer/ engine as the modern three).
//
// Axes under test:
//   downtime        — resumed_at - frozen_at (the user-visible freeze)
//   bytes on wire   — engine page/map/ref payload bytes for the migration
//
// Paper-era claims (V / Accent / LOCUS / Sprite comparison):
//   whole-copy      — freeze grows linearly with image size
//   pre-copy (V)    — freeze shrinks to the final dirty set; work > 1 image
//   copy-on-ref     — near-instant resume; residual source dependency
//   Sprite flush    — freeze bound by dirty data written to the file server
// Modern claims (ISSUE 10 headline wins, asserted below):
//   iter pre-copy   — at a nonzero dirty rate, strictly beats single-round
//                     pre-copy on downtime (rounds converge on a small set)
//   post-copy       — lowest freeze of all; residual pages fully drained by
//                     the background push even if the target never faults
//   content-addr    — measurably fewer total bytes than whole-copy on a
//                     pmake-farm shape (shared program text moves once)
//
// Flags:
//   --quick         smaller matrix (headline assertions always run)
//   --seed N        cluster seed (default 9)
//   --metrics-out F write the showcase cluster's metrics snapshot as JSON
//   --series-out F  write the showcase cluster's telemetry series as JSON
//   --trace-out F   record the showcase cluster as Chrome trace JSON
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "migration/manager.h"
#include "trace/series.h"
#include "util/assert.h"

using sprite::core::SpriteCluster;
using sprite::mig::MigrationRecord;
using sprite::mig::VmStrategy;
using sprite::proc::ScriptBuilder;
using sprite::sim::Time;
using sprite::util::Table;

namespace {

// One matrix cell: a fresh 3-workstation cluster, one process dirtying
// `dirty_rate` pages/sec as a sliding window over the heap, one migration.
struct CellOpts {
  VmStrategy strategy = VmStrategy::kSpriteFlush;
  std::int64_t dirty_rate = 0;   // heap pages written per second (sliding)
  double net_bytes_per_sec = 0;  // 0 = the calibrated default
  std::int64_t mb = 4;           // heap image size
  int max_rounds = 0;            // >0 overrides costs.xfer_max_rounds
  std::uint64_t seed = 9;
};

struct Sample {
  MigrationRecord rec;
  std::int64_t remote_faults = 0;  // post-settle demand pulls at the target
  std::int64_t drained = 0;        // xfer.postcopy.drained (cluster total)
  std::int64_t push_left = 0;      // push sessions still open after settling
};

// The writer re-dirties `rate` pages/sec in 50 ms ticks, sliding across the
// heap so the pages dirtied during a transfer round scale with the round's
// duration — a rate, not a fixed hot set (a fixed set would make every
// round resend the same pages and hide the convergence behaviour).
void build_writer(ScriptBuilder& b, std::int64_t pages, std::int64_t rate) {
  b.act(sprite::proc::Touch{sprite::vm::Segment::kHeap, 0, pages, true});
  if (rate <= 0) {
    b.act(sprite::proc::Pause{Time::hours(1)});
  } else {
    const std::int64_t per_tick =
        std::clamp<std::int64_t>(rate / 20, 1, pages / 2);
    const std::int64_t span = pages - per_tick;
    for (int i = 0; i < 2000; ++i) {
      b.act(sprite::proc::Touch{sprite::vm::Segment::kHeap,
                                (i * per_tick) % span, per_tick, true})
          .compute(Time::msec(50));
    }
  }
  b.exit(0);
}

Sample migrate_once(const CellOpts& o) {
  SpriteCluster::Options co;
  co.workstations = 3;
  co.seed = o.seed;
  if (o.net_bytes_per_sec > 0) co.costs.net_bytes_per_sec = o.net_bytes_per_sec;
  if (o.max_rounds > 0) co.costs.xfer_max_rounds = o.max_rounds;
  SpriteCluster cluster(co);
  const std::int64_t pages = o.mb * 256;

  ScriptBuilder b;
  build_writer(b, pages, o.dirty_rate);
  cluster.install_program("/bin/image", b.image(16, pages, 4));

  cluster.host(cluster.workstation(0)).mig().set_strategy(o.strategy);
  const auto pid = cluster.spawn(cluster.workstation(0), "/bin/image", {});
  cluster.run_for(Time::sec(10 + o.mb));  // image dirtied
  auto st = cluster.migrate(pid, cluster.workstation(1));
  SPRITE_CHECK(st.is_ok());

  Sample s;
  s.rec = cluster.host(cluster.workstation(0)).mig().last_record();
  // Settle: the post-copy push daemon drains residual pages here; for every
  // other strategy this window is inert.
  cluster.run_for(Time::sec(5));
  s.drained = cluster.sim().trace().counter_total("xfer.postcopy.drained");
  s.push_left = static_cast<std::int64_t>(
      cluster.host(cluster.workstation(0)).mig().xfer().active_pushes());
  // Touch the whole image on the target to expose demand-paging costs that
  // survived the settle window (copy-on-reference's residual dependency).
  auto pcb = cluster.host(cluster.workstation(1)).procs().find(pid);
  if (pcb && pcb->space) {
    bool done = false;
    cluster.host(cluster.workstation(1))
        .vm()
        .touch(pcb->space, sprite::vm::Segment::kHeap, 0, pages, false,
               [&](sprite::util::Status) { done = true; });
    cluster.kernel().run_until_done([&] { return done; });
    s.remote_faults = cluster.sim().trace().counter_value(
        "vm.page.remote_pulled", cluster.workstation(1));
  }
  return s;
}

// The pmake-farm shape for the content-addressed headline: `workers`
// processes of the same executable (1 MB of program text, a small private
// heap) all migrate to the same target. Under content-addressed transfer
// the shared text crosses the wire once; whole-copy ships it per process.
// Returns total engine bytes on wire across all the migrations.
std::int64_t farm_bytes(VmStrategy strategy, int workers, std::uint64_t seed,
                        std::int64_t* deduped_out) {
  SpriteCluster cluster({.workstations = 3, .seed = seed});
  const std::int64_t code_pages = 256, heap_pages = 32;
  ScriptBuilder b;
  // Fault the program text in (read-only) so it is resident at freeze.
  b.act(sprite::proc::Touch{sprite::vm::Segment::kCode, 0, code_pages, false});
  b.act(sprite::proc::Touch{sprite::vm::Segment::kHeap, 0, heap_pages, true});
  b.act(sprite::proc::Pause{Time::hours(1)});
  b.exit(0);
  cluster.install_program("/bin/farm", b.image(code_pages, heap_pages, 4));

  cluster.host(cluster.workstation(0)).mig().set_strategy(strategy);
  std::vector<sprite::proc::Pid> pids;
  for (int i = 0; i < workers; ++i)
    pids.push_back(cluster.spawn(cluster.workstation(0), "/bin/farm", {}));
  cluster.run_for(Time::sec(5));  // everyone touched text + heap

  std::int64_t bytes = 0;
  for (const auto pid : pids) {
    SPRITE_CHECK(cluster.migrate(pid, cluster.workstation(1)).is_ok());
    bytes += cluster.host(cluster.workstation(0)).mig().last_record()
                 .bytes_on_wire;
  }
  if (deduped_out != nullptr)
    *deduped_out = cluster.sim().trace().counter_total("xfer.page.deduped");
  return bytes;
}

// Deterministic showcase cluster for --metrics-out/--series-out (and the
// bench_gate baseline): one cluster exercising all three modern strategies
// so every xfer.* metric is populated in a single snapshot.
void showcase_metrics(int argc, char** argv, std::uint64_t seed) {
  const std::string metrics = bench::metrics_out_arg(argc, argv);
  const std::string series = bench::series_out_arg(argc, argv);
  const std::string trace = bench::trace_out_arg(argc, argv);

  SpriteCluster cluster({.workstations = 4, .seed = seed});
  bench::arm_trace(cluster, trace);
  sprite::trace::SeriesSampler::Options sopts;
  sopts.stride = Time::sec(1);
  sprite::trace::SeriesSampler sampler(cluster.sim().trace(), sopts);
  bench::arm_series(cluster, sampler);

  const std::int64_t code_pages = 256, heap_pages = 256;
  ScriptBuilder b;
  b.act(sprite::proc::Touch{sprite::vm::Segment::kCode, 0, code_pages, false});
  build_writer(b, heap_pages, /*rate=*/250);
  cluster.install_program("/bin/show", b.image(code_pages, heap_pages, 4));

  auto& mig0 = cluster.host(cluster.workstation(0)).mig();
  const VmStrategy plan[] = {VmStrategy::kContentAddr,
                             VmStrategy::kContentAddr,
                             VmStrategy::kIterPreCopy, VmStrategy::kPostCopy};
  int target = 1;
  for (const VmStrategy strategy : plan) {
    const auto pid = cluster.spawn(cluster.workstation(0), "/bin/show", {});
    cluster.run_for(Time::sec(3));
    mig0.set_strategy(strategy);
    SPRITE_CHECK(cluster.migrate(pid, cluster.workstation(target)).is_ok());
    target = 1 + (target % 3);
  }
  cluster.run_for(Time::sec(10));  // post-copy push drains, writers keep going

  bench::write_metrics(cluster, metrics);
  bench::write_series(sampler, series);
  if (!trace.empty()) bench::finish_trace(cluster, trace);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && argv[1][0] != '-') {
    // Bisection helper: run a single (strategy, mb) cell.
    CellOpts o;
    o.strategy = static_cast<VmStrategy>(std::atoi(argv[1]));
    o.mb = std::atoll(argv[2]);
    o.dirty_rate = 250;
    auto s = migrate_once(o);
    std::printf("ok freeze=%.1fms total=%.1fms\n", s.rec.freeze_time().ms(),
                s.rec.total_time().ms());
    return 0;
  }
  bool quick = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--quick") quick = true;
  const std::string seed_arg = bench::flag_arg(argc, argv, "--seed");
  const std::uint64_t seed =
      seed_arg.empty() ? 9 : std::strtoull(seed_arg.c_str(), nullptr, 10);

  bench::header(
      "E19: live-transfer engine matrix (bench_vm_strategies)",
      "iterative pre-copy converges to a small final set; post-copy resumes "
      "near-instantly and drains by push; content refs dedup shared text");

  // ---- The matrix: strategy × dirty rate × link bandwidth ----
  const std::vector<VmStrategy> strategies = {
      VmStrategy::kWholeCopy,   VmStrategy::kPreCopy,
      VmStrategy::kCopyOnRef,   VmStrategy::kSpriteFlush,
      VmStrategy::kIterPreCopy, VmStrategy::kPostCopy,
      VmStrategy::kContentAddr};
  const std::vector<std::int64_t> rates =
      quick ? std::vector<std::int64_t>{0, 250}
            : std::vector<std::int64_t>{0, 250, 1000};
  const std::vector<double> bandwidths =
      quick ? std::vector<double>{0}  // calibrated default (3.1 MB/s)
            : std::vector<double>{1.0e6, 0, 12.4e6};

  Table t({"strategy", "dirty p/s", "link MB/s", "downtime ms", "total ms",
           "KB wired", "pages", "flushed", "rounds", "dedup", "CoR pulls"});
  // Freeze times at the headline cell (rate 250, default link) by strategy.
  std::vector<double> freeze_at_250(strategies.size(), 0.0);
  for (std::size_t si = 0; si < strategies.size(); ++si) {
    for (const std::int64_t rate : rates) {
      for (const double bw : bandwidths) {
        CellOpts o;
        o.strategy = strategies[si];
        o.dirty_rate = rate;
        o.net_bytes_per_sec = bw;
        o.seed = seed;
        const Sample s = migrate_once(o);
        if (rate == 250 && bw == 0) freeze_at_250[si] = s.rec.freeze_time().ms();
        t.add_row({sprite::mig::strategy_name(strategies[si]),
                   std::to_string(rate),
                   Table::num((bw > 0 ? bw : sprite::sim::Costs{}
                                                 .net_bytes_per_sec) / 1e6, 1),
                   Table::num(s.rec.freeze_time().ms(), 1),
                   Table::num(s.rec.total_time().ms(), 1),
                   std::to_string(s.rec.bytes_on_wire / 1024),
                   std::to_string(s.rec.pages_moved),
                   std::to_string(s.rec.pages_flushed),
                   std::to_string(s.rec.precopy_rounds),
                   std::to_string(s.rec.pages_deduped),
                   std::to_string(s.remote_faults)});
      }
    }
  }
  t.print();

  // ---- Headline 1: iterative pre-copy vs single-round, nonzero rate ----
  CellOpts iter_cell{.strategy = VmStrategy::kIterPreCopy, .dirty_rate = 250,
                     .seed = seed};
  CellOpts single_cell = iter_cell;
  single_cell.max_rounds = 1;  // degenerate: one full pass, then freeze
  const Sample iter = migrate_once(iter_cell);
  const Sample single = migrate_once(single_cell);
  std::printf("\niter pre-copy downtime %.1f ms (%lld rounds) vs "
              "single-round %.1f ms\n",
              iter.rec.freeze_time().ms(),
              static_cast<long long>(iter.rec.precopy_rounds),
              single.rec.freeze_time().ms());
  SPRITE_CHECK_MSG(iter.rec.freeze_time() < single.rec.freeze_time(),
                   "iterative pre-copy must strictly beat single-round on "
                   "downtime at a nonzero dirty rate");

  // ---- Headline 2: post-copy lowest freeze, residuals drained by push ----
  const auto strat_index = [&](VmStrategy v) {
    return static_cast<std::size_t>(
        std::find(strategies.begin(), strategies.end(), v) -
        strategies.begin());
  };
  const double post_freeze = freeze_at_250[strat_index(VmStrategy::kPostCopy)];
  for (std::size_t si = 0; si < strategies.size(); ++si) {
    if (strategies[si] == VmStrategy::kPostCopy) continue;
    // Copy-on-reference shares the freeze-early resume path, so a tie is
    // legitimate there; everyone else must be strictly slower.
    if (strategies[si] == VmStrategy::kCopyOnRef) {
      SPRITE_CHECK_MSG(post_freeze <= freeze_at_250[si] + 0.001,
                       "post-copy freeze must not exceed copy-on-reference");
    } else {
      SPRITE_CHECK_MSG(post_freeze < freeze_at_250[si],
                       "post-copy must have the lowest freeze time");
    }
  }
  CellOpts post_cell{.strategy = VmStrategy::kPostCopy, .dirty_rate = 0,
                     .seed = seed};
  const Sample post = migrate_once(post_cell);
  std::printf("post-copy freeze %.1f ms; push drained %lld session(s), "
              "%lld still open, %lld demand pulls after settle\n",
              post.rec.freeze_time().ms(),
              static_cast<long long>(post.drained),
              static_cast<long long>(post.push_left),
              static_cast<long long>(post.remote_faults));
  SPRITE_CHECK_MSG(post.drained >= 1 && post.push_left == 0,
                   "post-copy residuals must drain via the background push "
                   "even when the target never faults");
  SPRITE_CHECK_MSG(post.remote_faults == 0,
                   "a drained post-copy space must leave nothing to pull");

  // ---- Headline 3: content-addressed vs whole-copy on the pmake farm ----
  std::int64_t deduped = 0;
  const std::int64_t ca = farm_bytes(VmStrategy::kContentAddr, 3, seed,
                                     &deduped);
  const std::int64_t wc = farm_bytes(VmStrategy::kWholeCopy, 3, seed, nullptr);
  std::printf("pmake farm (3 workers, shared 1 MB text): content-addressed "
              "%lld KB vs whole-copy %lld KB on the wire (%lld pages "
              "deduped)\n",
              static_cast<long long>(ca / 1024),
              static_cast<long long>(wc / 1024),
              static_cast<long long>(deduped));
  SPRITE_CHECK_MSG(ca < wc,
                   "content-addressed transfer must move fewer bytes than "
                   "whole-copy when program text is shared");

  showcase_metrics(argc, argv, seed);

  bench::footnote(
      "Shape checks: whole-copy and flush downtime scale with the image while\n"
      "the freeze-early strategies stay flat. Iterative pre-copy's rounds\n"
      "converge whenever the dirty rate stays under the link's page rate —\n"
      "the 1000 p/s rows show the divergent regime where the round cap and\n"
      "the stopped-shrinking rule bound the work. Post-copy trades freeze\n"
      "for a push-drained residual window; content references replace pages\n"
      "whose bytes the target can already source locally.");
  return 0;
}
