// Tests for the tracing & metrics registry: metric accumulation, event
// gating, span pairing, determinism of the Chrome JSON export, and the
// kernel instrumentation (migration lifecycle spans).
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/sprite.h"
#include "kern/cluster.h"
#include "proc/script.h"
#include "proc/table.h"
#include "rpc/rpc.h"
#include "sim/cpu.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "trace/analysis.h"
#include "trace/trace.h"

namespace sprite::trace {
namespace {

using core::SpriteCluster;
using proc::ScriptBuilder;
using sim::Time;

// ---------------------------------------------------------------------------
// A minimal JSON validator (objects, arrays, strings, numbers, literals) —
// enough to prove the export is well-formed without a JSON dependency.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing '"'
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::string l(lit);
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Registry unit tests (fake clock).
// ---------------------------------------------------------------------------

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest() : reg_([this] { return now_us_; }) {}

  std::int64_t now_us_ = 0;
  Registry reg_;
};

TEST_F(RegistryTest, CountersAccumulateAndAreKeyedByHost) {
  Counter& a = reg_.counter("x.y.z", 1);
  Counter& b = reg_.counter("x.y.z", 2);
  a.inc();
  a.inc(4);
  b.inc();
  EXPECT_EQ(reg_.counter_value("x.y.z", 1), 5);
  EXPECT_EQ(reg_.counter_value("x.y.z", 2), 1);
  EXPECT_EQ(reg_.counter_value("x.y.z", 3), 0);       // never touched
  EXPECT_EQ(reg_.counter_value("no.such.metric"), 0);
  // Addresses are stable: a second lookup returns the same counter.
  EXPECT_EQ(&reg_.counter("x.y.z", 1), &a);
}

TEST_F(RegistryTest, HistogramBucketsAndMean) {
  LatencyHistogram& h = reg_.histogram("m.lat.ms", {1.0, 10.0, 100.0});
  h.record(0.5);    // [0,1)
  h.record(5.0);    // [1,10)
  h.record(50.0);   // [10,100)
  h.record(500.0);  // overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.mean(), (0.5 + 5.0 + 50.0 + 500.0) / 4.0);
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(2), 1);
  EXPECT_EQ(h.bucket(3), 1);
}

TEST_F(RegistryTest, DisabledRegistryRecordsNoEvents) {
  ASSERT_FALSE(reg_.tracing());
  EXPECT_EQ(reg_.begin_span("cat", "name", 0), 0u);
  reg_.end_span(0);
  reg_.instant("cat", "name", 0);
  reg_.span_at("cat", "name", 0, -1, Time::usec(1), Time::usec(2));
  EXPECT_TRUE(reg_.events().empty());
  EXPECT_EQ(reg_.dropped_events(), 0);
  // Metrics still work while events are off.
  reg_.counter("c").inc();
  EXPECT_EQ(reg_.counter_value("c"), 1);
}

TEST_F(RegistryTest, SpanPairingAndTimestamps) {
  reg_.set_tracing(true);
  now_us_ = 100;
  const SpanId id = reg_.begin_span("rpc", "call", 3, 7, {{"k", "v"}});
  ASSERT_NE(id, 0u);
  now_us_ = 250;
  reg_.end_span(id);
  ASSERT_EQ(reg_.events().size(), 2u);
  const Event& b = reg_.events()[0];
  const Event& e = reg_.events()[1];
  EXPECT_EQ(b.phase, 'b');
  EXPECT_EQ(e.phase, 'e');
  EXPECT_EQ(b.id, e.id);
  EXPECT_EQ(b.ts_us, 100);
  EXPECT_EQ(e.ts_us, 250);
  EXPECT_EQ(b.host, 3);
  EXPECT_EQ(b.pid, 7);
  // The end inherits the begin's attribution so viewers pair them.
  EXPECT_EQ(e.host, 3);
  EXPECT_EQ(e.pid, 7);
}

TEST_F(RegistryTest, MaxEventsDropsInsteadOfGrowing) {
  reg_.set_tracing(true);
  reg_.set_max_events(3);
  for (int i = 0; i < 10; ++i) reg_.instant("c", "n", 0);
  EXPECT_EQ(reg_.events().size(), 3u);
  EXPECT_EQ(reg_.dropped_events(), 7);
}

TEST_F(RegistryTest, ChromeJsonIsValidJson) {
  reg_.set_tracing(true);
  reg_.set_host_name(0, "host0");
  now_us_ = 10;
  const SpanId id = reg_.begin_span("mig", "migrate", 0, 42);
  now_us_ = 20;
  reg_.instant("vm", "page \"flush\"\n", 0, 42, {{"count", "3"}});
  now_us_ = 30;
  reg_.end_span(id);
  const std::string json = reg_.chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Kernel integration: instrumentation through a real simulated run.
// ---------------------------------------------------------------------------

// A small workload: spawn a process on ws0 that dirties some heap and
// computes, then actively migrate it to ws1 and wait for it.
void run_migration_workload(SpriteCluster& cluster) {
  ScriptBuilder b;
  b.act(proc::Touch{vm::Segment::kHeap, 0, 64, true})
      .compute(Time::sec(2))
      .exit(0);
  cluster.install_program("/bin/work", b.image(8, 64, 2));
  const auto pid = cluster.spawn(cluster.workstation(0), "/bin/work", {});
  cluster.run_for(Time::msec(500));
  const auto st = cluster.migrate(pid, cluster.workstation(1));
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  cluster.wait(pid);
}

TEST(TraceIntegrationTest, CountersAccumulateDuringRun) {
  SpriteCluster cluster({.workstations = 3, .seed = 11,
                         .enable_load_sharing = false});
  run_migration_workload(cluster);
  Registry& tr = cluster.sim().trace();
  const auto ws0 = cluster.workstation(0);
  const auto ws1 = cluster.workstation(1);
  EXPECT_EQ(tr.counter_value("mig.out.completed", ws0), 1);
  EXPECT_EQ(tr.counter_value("mig.in.completed", ws1), 1);
  EXPECT_GE(tr.counter_value("proc.process.spawned", ws0), 1);
  EXPECT_GT(tr.counter_value("rpc.call.started", ws0), 0);
  EXPECT_GT(tr.counter_value("vm.page.flushed", ws0), 0);
  // No tracing requested: the metrics came for free, no events recorded.
  EXPECT_TRUE(tr.events().empty());
}

bool has_event(const Registry& tr, const std::string& cat,
               const std::string& name) {
  for (const Event& e : tr.events())
    if (e.cat == cat && e.name == name) return true;
  return false;
}

TEST(TraceIntegrationTest, MigrationRunEmitsLifecycleSpans) {
  SpriteCluster cluster({.workstations = 3, .seed = 11,
                         .enable_load_sharing = false});
  Registry& tr = cluster.sim().trace();
  tr.set_tracing(true);
  run_migration_workload(cluster);
  ASSERT_FALSE(tr.events().empty());

  EXPECT_TRUE(has_event(tr, "mig", "init handshake"));
  EXPECT_TRUE(has_event(tr, "mig", "vm sprite-flush"));
  EXPECT_TRUE(has_event(tr, "mig", "streams re-attribute"));
  EXPECT_TRUE(has_event(tr, "mig", "transfer+resume"));
  EXPECT_TRUE(has_event(tr, "mig", "frozen"));
  EXPECT_TRUE(has_event(tr, "mig", "migrated in"));
  EXPECT_TRUE(has_event(tr, "vm", "page flush"));

  // The lifecycle spans carry host and pid attribution.
  const auto ws0 = cluster.workstation(0);
  bool attributed = false;
  for (const Event& e : tr.events()) {
    if (e.cat != "mig" || e.name != "init handshake") continue;
    EXPECT_EQ(e.host, ws0);
    EXPECT_GT(e.pid, 0);
    attributed = true;
  }
  EXPECT_TRUE(attributed);

  const std::string json = tr.chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("init handshake"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Causal context: ScopedContext, scheduling capture, wire propagation.
// ---------------------------------------------------------------------------

TEST_F(RegistryTest, ScopedContextParentsNewSpans) {
  reg_.set_tracing(true);
  const Context root = reg_.new_trace();
  ASSERT_TRUE(root.valid());
  SpanId parent = 0;
  SpanId child = 0;
  {
    ScopedContext scope(reg_, root);
    parent = reg_.begin_span("t", "parent", 0);
    {
      ScopedContext inner(reg_, reg_.span_context(parent));
      child = reg_.begin_span("t", "child", 0);
      reg_.end_span(child);
    }
    reg_.end_span(parent);
  }
  EXPECT_FALSE(reg_.current().valid());  // restored on scope exit

  const Event* pb = nullptr;
  const Event* cb = nullptr;
  for (const Event& e : reg_.events()) {
    if (e.phase != 'b') continue;
    if (e.id == parent) pb = &e;
    if (e.id == child) cb = &e;
  }
  ASSERT_NE(pb, nullptr);
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(pb->trace_id, root.trace_id);
  EXPECT_EQ(pb->parent, 0u);
  EXPECT_EQ(cb->trace_id, root.trace_id);
  EXPECT_EQ(cb->parent, parent);

  // Applying an invalid context is a no-op, not a reset to "no context".
  {
    ScopedContext outer(reg_, root);
    ScopedContext noop(reg_, Context{});
    EXPECT_EQ(reg_.current().trace_id, root.trace_id);
  }
}

TEST_F(RegistryTest, ClearEventsOrphansStaleSpanIds) {
  reg_.set_tracing(true);
  const SpanId stale = reg_.begin_span("t", "open-across-clear", 0);
  ASSERT_NE(stale, 0u);
  reg_.clear_events();
  EXPECT_TRUE(reg_.events().empty());

  // Ending a span begun before the clear neither crashes nor emits a
  // dangling 'e'; it is counted instead.
  reg_.end_span(stale);
  EXPECT_TRUE(reg_.events().empty());
  EXPECT_EQ(reg_.counter_value("trace.span.orphaned"), 1);

  // Fresh spans after the clear pair normally.
  const SpanId fresh = reg_.begin_span("t", "fresh", 0);
  reg_.end_span(fresh);
  ASSERT_EQ(reg_.events().size(), 2u);
  EXPECT_EQ(reg_.events()[0].phase, 'b');
  EXPECT_EQ(reg_.events()[1].phase, 'e');
  EXPECT_EQ(reg_.counter_value("trace.span.orphaned"), 1);
}

TEST_F(RegistryTest, ReservedSpanCanBeEmittedRetroactively) {
  reg_.set_tracing(true);
  const Context trace = reg_.new_trace();
  const SpanId root = reg_.reserve_span();
  ASSERT_NE(root, 0u);
  // A live child recorded while the root exists only as a reservation.
  SpanId child = 0;
  {
    ScopedContext scope(reg_, Context{trace.trace_id, root});
    child = reg_.begin_span("t", "child", 0);
    reg_.end_span(child);
  }
  const SpanId used = reg_.span_at("t", "root", 0, -1, Time::usec(1),
                                   Time::usec(9), {}, Context{trace.trace_id, 0},
                                   root);
  EXPECT_EQ(used, root);
  const analysis::SpanTree t = analysis::build_tree(reg_.events(),
                                                    trace.trace_id);
  const analysis::Span* r = t.root_like("t", "root");
  ASSERT_NE(r, nullptr);
  ASSERT_EQ(r->children.size(), 1u);
  EXPECT_EQ(t.spans[r->children[0]].id, child);
}

TEST_F(RegistryTest, MetricsJsonIsValidAndDeterministic) {
  reg_.counter("a.b.c", 1).inc(3);
  reg_.gauge("g.load.avg", 2).set(2.5);
  reg_.histogram("m.lat.ms", {1.0, 10.0}).record(5.0);
  const std::string j = reg_.metrics_json();
  EXPECT_TRUE(JsonChecker(j).valid()) << j;
  EXPECT_NE(j.find("a.b.c"), std::string::npos);
  EXPECT_NE(j.find("g.load.avg"), std::string::npos);
  EXPECT_NE(j.find("m.lat.ms"), std::string::npos);
  EXPECT_EQ(j, reg_.metrics_json());
}

TEST(FlightRecorderTest, RingKeepsNewestEntriesInOrder) {
  FlightRecorder fr(4);
  for (int i = 0; i < 6; ++i) fr.note(i, i, -1, "cat", "note", i * 10, 0);
  EXPECT_EQ(fr.capacity(), 4u);
  EXPECT_EQ(fr.recorded(), 6);
  const auto t = fr.tail(100);
  ASSERT_EQ(t.size(), 4u);  // oldest two fell off
  for (std::size_t i = 0; i < t.size(); ++i)
    EXPECT_EQ(t[i].ts_us, static_cast<std::int64_t>(i) + 2);
  const auto t2 = fr.tail(2);
  ASSERT_EQ(t2.size(), 2u);
  EXPECT_EQ(t2[0].ts_us, 4);
  EXPECT_EQ(t2[1].ts_us, 5);
  EXPECT_NE(fr.report(4).find("note"), std::string::npos);
}

TEST_F(RegistryTest, FlightNotesRecordRegardlessOfTracing) {
  ASSERT_FALSE(reg_.tracing());
  now_us_ = 1234;
  reg_.flight_note("rpc.call", "echo", 1, -1, 2, 0);
  EXPECT_EQ(reg_.flight().recorded(), 1);
  const auto t = reg_.flight().tail(1);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].ts_us, 1234);
  EXPECT_EQ(t[0].host, 1);
  EXPECT_STREQ(t[0].cat, "rpc.call");
  EXPECT_TRUE(reg_.events().empty());  // forensics are not trace events
}

TEST(TraceCausalityTest, SimulatorSchedulingCarriesAmbientContext) {
  sim::Simulator s(1);
  Registry& tr = s.trace();
  tr.set_tracing(true);
  const Context ctx = tr.new_trace();
  SpanId outer = 0;
  SpanId child = 0;
  {
    ScopedContext scope(tr, ctx);
    outer = tr.begin_span("t", "outer", 0);
    ScopedContext inner(tr, tr.span_context(outer));
    s.after(Time::msec(1), [&] {
      // The continuation runs long after both scopes unwound; the context
      // captured at scheduling time must be ambient again here.
      child = tr.begin_span("t", "child", 0);
      tr.end_span(child);
      tr.end_span(outer);
    });
  }
  EXPECT_FALSE(tr.current().valid());
  s.run();
  ASSERT_NE(child, 0u);
  for (const Event& e : tr.events()) {
    if (e.phase != 'b' || e.id != child) continue;
    EXPECT_EQ(e.trace_id, ctx.trace_id);
    EXPECT_EQ(e.parent, outer);
  }
}

struct TraceEchoBody : rpc::Message {
  std::int64_t wire_bytes() const override { return 16; }
};

// A retransmitted-then-deduplicated RPC must not spawn a second server-side
// child span: the retransmission carries the same context and the dedup
// cache replays the cached reply without re-dispatching.
TEST(TraceCausalityTest, RetransmittedThenDedupedCallHasOneServeSpan) {
  sim::Costs costs;
  sim::Simulator s(1);
  sim::Network net(s, costs);
  std::vector<std::unique_ptr<sim::Cpu>> cpus;
  std::vector<std::unique_ptr<rpc::RpcNode>> nodes;
  for (int i = 0; i < 2; ++i) cpus.push_back(std::make_unique<sim::Cpu>(s, costs));
  for (int i = 0; i < 2; ++i) {
    const sim::HostId id = net.attach([&nodes, i](const sim::Packet& p) {
      nodes[static_cast<std::size_t>(i)]->handle_packet(p);
    });
    ASSERT_EQ(id, i);
    nodes.push_back(std::make_unique<rpc::RpcNode>(
        s, net, *cpus[static_cast<std::size_t>(i)], id, costs));
  }
  nodes[1]->register_service(
      rpc::ServiceId::kEcho,
      [](sim::HostId, const rpc::Request&,
         std::function<void(rpc::Reply)> respond) {
        respond(rpc::Reply{util::Status::ok(), nullptr});
      });

  // Lose the first reply to host 0: the server has served, the client
  // retransmits, the server's dedup cache answers the duplicate.
  sim::FaultPlan plan(s, net);
  plan.drop_message(rpc::RpcNode::match_reply(0), 1);
  plan.arm({});

  Registry& tr = s.trace();
  tr.set_tracing(true);
  const Context ctx = tr.new_trace();
  bool done = false;
  {
    ScopedContext scope(tr, ctx);
    nodes[0]->call(1, rpc::ServiceId::kEcho, 0,
                   std::make_shared<TraceEchoBody>(),
                   [&](util::Result<rpc::Reply> r) {
                     EXPECT_TRUE(r.is_ok());
                     done = true;
                   });
  }
  s.run();
  ASSERT_TRUE(done);
  EXPECT_GE(nodes[0]->retransmissions(), 1);
  EXPECT_EQ(nodes[1]->requests_served(), 1);  // dedup hit did not re-serve

  SpanId call_span = 0;
  int serve_begins = 0;
  SpanId serve_parent = 0;
  std::uint64_t serve_trace = 0;
  for (const Event& e : tr.events()) {
    if (e.phase != 'b' || e.cat != "rpc") continue;
    if (e.name == "call echo") call_span = e.id;
    if (e.name == "serve echo") {
      ++serve_begins;
      serve_parent = e.parent;
      serve_trace = e.trace_id;
    }
  }
  EXPECT_EQ(serve_begins, 1);
  ASSERT_NE(call_span, 0u);
  EXPECT_EQ(serve_parent, call_span);
  EXPECT_EQ(serve_trace, ctx.trace_id);
}

TEST(TraceIntegrationTest, MigrationTraceSpansHostsWithFlowEvents) {
  SpriteCluster cluster({.workstations = 3, .seed = 11,
                         .enable_load_sharing = false});
  Registry& tr = cluster.sim().trace();
  tr.set_tracing(true);
  run_migration_workload(cluster);

  // One migration trace whose spans live on both the source and the target.
  const auto ids = analysis::trace_ids(tr.events());
  ASSERT_FALSE(ids.empty());
  std::uint64_t mig_trace = 0;
  for (std::uint64_t id : ids)
    if (analysis::build_tree(tr.events(), id).root_like("mig", "migrate"))
      mig_trace = id;
  ASSERT_NE(mig_trace, 0u);

  const auto ws0 = cluster.workstation(0);
  const auto ws1 = cluster.workstation(1);
  bool on_source = false;
  bool on_target = false;
  for (const Event& e : tr.events()) {
    if (e.phase != 'b' || e.trace_id != mig_trace) continue;
    if (e.host == ws0) on_source = true;
    if (e.host == ws1) on_target = true;
  }
  EXPECT_TRUE(on_source);
  EXPECT_TRUE(on_target);

  // The export carries cross-host causality as Chrome flow ('s'/'f') pairs.
  const std::string json = tr.chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);

  // And the analysis layer can decompose the migration: the in-total
  // components tile the end-to-end span.
  const auto bd = analysis::migration_breakdown(tr.events(), mig_trace);
  ASSERT_TRUE(bd.valid);
  EXPECT_GT(bd.total_us, 0);
  EXPECT_NEAR(static_cast<double>(bd.sum_in_total_us()),
              static_cast<double>(bd.total_us),
              0.05 * static_cast<double>(bd.total_us));
  EXPECT_GT(bd.freeze_us, 0);
}

TEST(TraceIntegrationTest, SameSeedProducesByteIdenticalTraceJson) {
  std::string first, second;
  for (std::string* out : {&first, &second}) {
    SpriteCluster cluster({.workstations = 3, .seed = 11,
                           .enable_load_sharing = false});
    Registry& tr = cluster.sim().trace();
    tr.set_tracing(true);
    tr.set_host_name(cluster.workstation(0), "ws0");
    run_migration_workload(cluster);
    *out = tr.chrome_json();
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace sprite::trace
