#include "fs/server.h"

#include <algorithm>
#include <vector>

#include "util/assert.h"
#include "util/log.h"

namespace sprite::fs {

using rpc::Reply;
using rpc::Request;
using rpc::ServiceId;
using sim::HostId;
using sim::JobClass;
using sim::Time;
using util::Err;
using util::Status;

namespace {

Reply error_reply(Err e, std::string msg = "") {
  return Reply{Status(e, std::move(msg)), nullptr};
}

}  // namespace

FsServer::FsServer(sim::Simulator& sim, sim::Cpu& cpu, rpc::RpcNode& rpc,
                   const sim::Costs& costs)
    : sim_(sim), cpu_(cpu), rpc_(rpc), costs_(costs) {
  trace::Registry& tr = sim_.trace();
  const sim::HostId self = rpc_.host();
  c_opens_ = &tr.counter("fs.server.open.served", self);
  c_hinted_opens_ = &tr.counter("fs.server.open.hinted", self);
  c_closes_ = &tr.counter("fs.server.close.served", self);
  c_lookup_components_ = &tr.counter("fs.server.lookup.components", self);
  c_reads_ = &tr.counter("fs.server.read.served", self);
  c_writes_ = &tr.counter("fs.server.write.served", self);
  c_bytes_read_ = &tr.counter("fs.server.read.bytes", self);
  c_bytes_written_ = &tr.counter("fs.server.write.bytes", self);
  c_recalls_ = &tr.counter("fs.server.recall.sent", self);
  c_cache_disables_ = &tr.counter("fs.server.cache.disabled", self);
  c_disk_accesses_ = &tr.counter("fs.server.disk.accessed", self);
  c_stream_migrations_ = &tr.counter("fs.server.stream.migrated", self);
  c_pipe_reads_ = &tr.counter("fs.server.pipe.read", self);
  c_pipe_writes_ = &tr.counter("fs.server.pipe.written", self);
  c_pipe_wakeups_ = &tr.counter("fs.server.pipe.woken", self);
  c_repl_applied_ = &tr.counter("fs.repl.records_applied", self);
  c_repl_solo_ = &tr.counter("fs.repl.solo_ops", self);
  c_repl_catchup_ = &tr.counter("fs.repl.catchup_records", self);
  c_repl_snapshots_ = &tr.counter("fs.repl.snapshot_syncs", self);
  c_repl_divergent_ = &tr.counter("fs.repl.divergent_ops", self);
  c_promotions_ = &tr.counter("fs.failover.promotions", self);
  c_demotions_ = &tr.counter("fs.failover.demotions", self);
  c_rejected_ = &tr.counter("fs.failover.rejected_ops", self);
  c_journal_appended_ = &tr.counter("fs.journal.appended", self);
  c_journal_replayed_ = &tr.counter("fs.journal.replayed", self);
  c_journal_discarded_ = &tr.counter("fs.journal.discarded", self);
  c_scrub_runs_ = &tr.counter("fs.scrub.runs", self);
  c_scrub_checked_ = &tr.counter("fs.scrub.blocks_checked", self);
  c_scrub_found_ = &tr.counter("fs.scrub.corrupt_found", self);
  c_scrub_repaired_ = &tr.counter("fs.scrub.repaired", self);
  c_scrub_unrepairable_ = &tr.counter("fs.scrub.unrepairable", self);
  c_read_detected_ = &tr.counter("fs.scrub.read_detected", self);
  c_nospace_ = &tr.counter("fs.server.write.nospace", self);
  root_ = next_ino_++;
  add_inode(root_, FileType::kDirectory);
}

void FsServer::register_services() {
  rpc_.register_service(
      ServiceId::kFsName,
      [this](HostId src, const Request& req, std::function<void(Reply)> r) {
        handle_name(src, req, std::move(r));
      });
  rpc_.register_service(
      ServiceId::kFsIo,
      [this](HostId src, const Request& req, std::function<void(Reply)> r) {
        handle_io(src, req, std::move(r));
      });
  rpc_.register_service(
      ServiceId::kFsRepl,
      [this](HostId src, const Request& req, std::function<void(Reply)> r) {
        handle_repl(src, req, std::move(r));
      });
}

void FsServer::configure_replication(int partition, Role role,
                                     sim::HostId peer) {
  SPRITE_CHECK(peer != host());
  partition_ = partition;
  role_ = role;
  configured_primary_ = role == Role::kPrimary;
  peer_ = peer;
}

// ---------------------------------------------------------------------------
// Namespace helpers
// ---------------------------------------------------------------------------

FsServer::Inode& FsServer::inode(Ino i) {
  auto it = inodes_.find(i);
  SPRITE_CHECK_MSG(it != inodes_.end(), "dangling inode reference");
  return it->second;
}

FsServer::Inode* FsServer::find_inode(Ino i) {
  auto it = inodes_.find(i);
  return it == inodes_.end() ? nullptr : &it->second;
}

const FsServer::Inode* FsServer::find_inode(Ino i) const {
  auto it = inodes_.find(i);
  return it == inodes_.end() ? nullptr : &it->second;
}

FsServer::Inode* FsServer::handle_inode(const FileId& id, std::int64_t gen,
                                        const char* op, Respond& respond,
                                        bool pipe) {
  if (stale_handle(id, gen)) {
    respond(error_reply(Err::kStale, std::string(op) + ": pre-crash stream"));
    return nullptr;
  }
  Inode* node = find_inode(id.ino);
  if (node == nullptr || (pipe && node->type != FileType::kPipe)) {
    respond(error_reply(Err::kStale, op));
    return nullptr;
  }
  return node;
}

FsServer::Inode& FsServer::add_inode(Ino ino, FileType type) {
  auto [it, fresh] = inodes_.try_emplace(ino, ino, type, costs_.block_size);
  SPRITE_CHECK_MSG(fresh, "inode number reused");
  return it->second;
}

util::Result<Ino> FsServer::lookup(const std::string& path) const {
  Ino cur = root_;
  for (const auto& comp : split_path(path)) {
    const Inode* node = find_inode(cur);
    if (node == nullptr || node->type != FileType::kDirectory)
      return {Err::kNoEnt, path};
    auto it = node->children.find(comp);
    if (it == node->children.end()) return {Err::kNoEnt, path};
    cur = it->second;
  }
  return cur;
}

util::Result<Ino> FsServer::create_at(const std::string& path, FileType type) {
  const auto comps = split_path(path);
  if (comps.empty()) return {Err::kInval, "empty path"};
  Ino cur = root_;
  for (std::size_t i = 0; i + 1 < comps.size(); ++i) {
    Inode& node = inode(cur);
    if (node.type != FileType::kDirectory) return {Err::kNoEnt, path};
    auto it = node.children.find(comps[i]);
    if (it == node.children.end()) return {Err::kNoEnt, path};
    cur = it->second;
  }
  Inode& parent = inode(cur);
  if (parent.type != FileType::kDirectory) return {Err::kNoEnt, path};
  auto it = parent.children.find(comps.back());
  if (it != parent.children.end()) return {Err::kExist, path};

  const Ino ino = next_ino_++;
  add_inode(ino, type);
  parent.children.emplace(comps.back(), ino);
  return ino;
}

void FsServer::maybe_reap(Ino i) {
  auto it = inodes_.find(i);
  if (it == inodes_.end()) return;
  Inode& node = it->second;
  if (!node.unlinked) return;
  for (const auto& [h, use] : node.users)
    if (use.any()) return;
  inodes_.erase(it);
}

util::Status FsServer::mkdir_p(const std::string& path) {
  const auto comps = split_path(path);
  std::vector<ReplRecord> recs;
  std::string prefix;
  Ino cur = root_;
  for (const auto& comp : comps) {
    prefix += "/" + comp;
    Inode& node = inode(cur);
    if (node.type != FileType::kDirectory) return Status(Err::kNoEnt, path);
    auto it = node.children.find(comp);
    if (it != node.children.end()) {
      cur = it->second;
      continue;
    }
    const Ino ino = next_ino_++;
    add_inode(ino, FileType::kDirectory);
    node.children.emplace(comp, ino);
    cur = ino;
    ReplRecord rec;
    rec.kind = ReplKind::kMkdir;
    rec.path = prefix;
    rec.ino = ino;
    recs.push_back(std::move(rec));
  }
  // Direct (harness-seeded) mutations must replicate like RPC-driven ones,
  // or a failover surfaces a namespace the seeds never reached.
  replicate(std::move(recs), [] {});
  return Status::ok();
}

util::Result<FileId> FsServer::create_file(const std::string& path,
                                           std::int64_t logical_size) {
  auto r = create_at(path, FileType::kRegular);
  if (!r.is_ok()) return r.status();
  Inode& node = inode(*r);
  node.data.extend(logical_size);
  ReplRecord rec;
  rec.kind = ReplKind::kCreate;
  rec.path = path;
  rec.ino = *r;
  rec.version = node.version;
  rec.size = logical_size;
  replicate({std::move(rec)}, [] {});
  return FileId{host(), *r};
}

util::Result<FileId> FsServer::create_pdev(const std::string& path,
                                           sim::HostId owner_host, int tag) {
  auto r = create_at(path, FileType::kPseudoDevice);
  if (!r.is_ok()) {
    if (r.err() != Err::kExist) return r.status();
    // Re-registration after the owner rebooted: the path survives, the
    // user-level server behind it is new. Update the routing in place so
    // fresh opens reach the reincarnated server.
    auto existing = lookup(path);
    if (!existing.is_ok()) return existing.status();
    Inode& node = inode(*existing);
    if (node.type != FileType::kPseudoDevice)
      return util::Result<FileId>(Err::kExist, path);
    node.pdev_host = owner_host;
    node.pdev_tag = tag;
    replicate_pdev(path, *existing, owner_host, tag);
    return FileId{host(), *existing};
  }
  Inode& node = inode(*r);
  node.pdev_host = owner_host;
  node.pdev_tag = tag;
  replicate_pdev(path, *r, owner_host, tag);
  return FileId{host(), *r};
}

void FsServer::replicate_pdev(const std::string& path, Ino ino,
                              sim::HostId owner_host, int tag) {
  ReplRecord rec;
  rec.kind = ReplKind::kPdev;
  rec.path = path;
  rec.ino = ino;
  rec.pdev_host = owner_host;
  rec.pdev_tag = tag;
  replicate({std::move(rec)}, [] {});
}

FileId FsServer::create_pipe_inode(HostId creator) {
  const Ino ino = next_ino_++;
  Inode& node = add_inode(ino, FileType::kPipe);
  node.unlinked = true;  // anonymous: reaped when the last end closes
  node.users[creator] = HostUse{1, 1};
  return FileId{host(), ino};
}

util::Result<StatResult> FsServer::stat_path(const std::string& path) const {
  auto r = lookup(path);
  if (!r.is_ok()) return r.status();
  const Inode* node = find_inode(*r);
  SPRITE_CHECK(node != nullptr);
  return StatResult{FileId{host(), node->ino}, node->type, node->data.size(),
                    node->version};
}

util::Result<Bytes> FsServer::read_direct(FileId id, std::int64_t offset,
                                          std::int64_t len) const {
  const Inode* node = find_inode(id.ino);
  if (node == nullptr) return {Err::kNoEnt, "stale file id"};
  return node->data.read(offset, len);
}

bool FsServer::is_cacheable(FileId id) const {
  const Inode* node = find_inode(id.ino);
  return node != nullptr && !node->write_shared;
}

std::int64_t FsServer::group_offset(FileId id, std::int64_t group) const {
  const Inode* node = find_inode(id.ino);
  if (node == nullptr) return -1;
  auto it = node->group_offsets.find(group);
  return it == node->group_offsets.end() ? -1 : it->second;
}

// ---------------------------------------------------------------------------
// Data helpers
// ---------------------------------------------------------------------------

std::int64_t FsServer::pwrite(Inode& node, std::int64_t offset,
                              const Bytes& data) {
  if (data.empty()) return 0;
  // Journal first, then apply: the apply only ever dies by a torn crash,
  // which un-applies the record (tear_last_write) for boot to redo.
  pending_.ino = node.ino;
  pending_.offset = offset;
  pending_.data.assign(data.begin(), data.end());
  c_journal_appended_->inc();
  node.data.write(offset, data, /*verify_rmw=*/true);
  pending_.state = PendingWrite::State::kApplied;
  return static_cast<std::int64_t>(data.size());
}

template <class MakeReply>
void FsServer::write_through(Inode& node, std::int64_t offset,
                             const Bytes& data, Respond respond,
                             MakeReply make_reply) {
  if (disk_full_) {
    // Rejected before replication: the backup never sees the record, so a
    // full disk cannot make the replicas diverge.
    c_nospace_->inc();
    return respond(error_reply(Err::kNoSpace, "disk full"));
  }
  c_writes_->inc();
  const std::int64_t written = pwrite(node, offset, data);
  c_bytes_written_->inc(written);
  rpc::MessagePtr rep = make_reply(written);
  ReplRecord rec;
  rec.kind = ReplKind::kWrite;
  rec.ino = node.ino;
  rec.offset = offset;
  rec.data = data;
  rec.size = node.data.size();
  rec.version = node.version;
  replicate({std::move(rec)}, [rep, respond = std::move(respond)]() mutable {
    respond(Reply{Status::ok(), rep});
  });
}

void FsServer::journal_recover() {
  using State = PendingWrite::State;
  PendingWrite& w = pending_;
  Inode* node = w.state == State::kUnapplied ? find_inode(w.ino) : nullptr;
  if (w.state == State::kTorn) {
    // The crash tore the record itself: the write never became durable.
    // Its half-applied on-disk remnant fails checksum verification, so it
    // is caught (and repaired from the replica) rather than served.
    c_journal_discarded_->inc();
    sim_.trace().flight_note("fs.journal", "discarded", host(), -1, w.ino,
                             w.offset);
  } else if (node != nullptr) {
    // RMW verification is skipped on replay: the record covers exactly the
    // bytes the torn apply garbled, so the rewrite restores them whole. A
    // block that was corrupt before the tear was tainted by it and stays
    // corrupt unless the record covers it in full.
    node->data.write(w.offset, w.data, /*verify_rmw=*/false);
    c_journal_replayed_->inc();
    sim_.trace().flight_note("fs.journal", "replayed", host(), -1, w.ino,
                             w.offset);
  }
  // Recovered: a tear before the next write has nothing to interrupt.
  w.state = State::kNone;
}

// ---------------------------------------------------------------------------
// Integrity: fault injection, scrubbing, peer repair
// ---------------------------------------------------------------------------

void FsServer::inject_bit_flip(std::uint64_t draw) {
  // Victim set: every stored block, in deterministic (ino, block) order so
  // the same draw always picks the same victim.
  std::vector<std::pair<Ino, std::int64_t>> victims;
  for (const auto& [ino, node] : inodes_)
    for (const auto& rec : node.data.records())
      victims.emplace_back(ino, rec.first);
  if (victims.empty()) return;
  const auto [ino, blk] = victims[draw % victims.size()];
  // The flip is silent until a read or scrub pass verifies the block.
  inode(ino).data.flip_bit(blk, draw / victims.size());
  sim_.trace().flight_note("fs.integrity", "bit_flipped", host(), -1, ino,
                           blk);
}

void FsServer::tear_last_write(std::uint64_t draw) {
  PendingWrite& w = pending_;
  if (down_ || w.state == PendingWrite::State::kNone) return;
  Inode* node = find_inode(w.ino);
  if (node == nullptr) return;
  const std::int64_t first = w.offset / costs_.block_size;
  const std::int64_t end = w.offset + static_cast<std::int64_t>(w.data.size());
  const std::int64_t nblk = (end - 1) / costs_.block_size - first + 1;
  // A prefix of the run's blocks survives; the suffix (at least one block)
  // is garbled in place — only the bytes the write covered, a neighbour's
  // data is not collateral.
  const std::int64_t keep =
      static_cast<std::int64_t>(draw % static_cast<std::uint64_t>(nblk));
  const std::int64_t from =
      std::max(w.offset, (first + keep) * costs_.block_size);
  node->data.garble(from, end - from);
  // The apply died with the crash. Half the draws also tear the journal
  // record itself (crash mid-append): recovery must discard it and leave
  // the garbled blocks to the checksums instead of replaying garbage.
  w.state = (draw & 1u) != 0 ? PendingWrite::State::kTorn
                             : PendingWrite::State::kUnapplied;
  sim_.trace().flight_note("fs.integrity", "write_torn", host(), -1, w.ino,
                           keep);
}

void FsServer::enable_scrub() {
  SPRITE_CHECK_MSG(costs_.fs_scrub_interval > Time::zero(),
                   "enable_scrub needs costs.fs_scrub_interval > 0");
  if (scrub_enabled_) return;
  scrub_enabled_ = true;
  sim_.every(costs_.fs_scrub_interval, "fs_scrub", [this] { scrub_tick(); });
}

void FsServer::scrub_tick() {
  if (down_ || inodes_.empty()) return;
  c_scrub_runs_->inc();
  std::int64_t budget = costs_.fs_scrub_blocks_per_pass;
  auto it = inodes_.lower_bound(scrub_ino_);
  if (it == inodes_.end()) {
    it = inodes_.begin();
    scrub_blk_ = -1;
  }
  if (it->first != scrub_ino_) {
    scrub_ino_ = it->first;  // cursor inode vanished; restart at successor
    scrub_blk_ = -1;
  }
  // At most one full lap over the inode table per tick.
  for (std::size_t lap = 0; lap <= inodes_.size() && budget > 0; ++lap) {
    FileBlocks& data = it->second.data;
    auto bit = data.records().upper_bound(scrub_blk_);
    while (bit != data.records().end() && budget > 0) {
      scrub_blk_ = bit->first;
      --budget;
      c_scrub_checked_->inc();
      if (!data.verify(bit->first)) {
        c_scrub_found_->inc();
        repair_block(it->first, bit->first);
      }
      ++bit;
    }
    if (bit != data.records().end()) break;  // budget exhausted mid-inode
    ++it;
    if (it == inodes_.end()) it = inodes_.begin();
    scrub_ino_ = it->first;
    scrub_blk_ = -1;
  }
}

std::int64_t FsServer::scrub_all_now() {
  std::int64_t found = 0;
  for (auto& [ino, node] : inodes_)
    for (std::int64_t blk : node.data.corrupt_blocks(0, node.data.size())) {
      ++found;
      c_scrub_found_->inc();
      repair_block(ino, blk);
    }
  return found;
}

void FsServer::repair_block(Ino ino, std::int64_t blk) {
  if (!repairing_.insert({ino, blk}).second) return;  // already in flight
  if (!replicated() || peer_down_) {
    repairing_.erase({ino, blk});
    c_scrub_unrepairable_->inc();
    sim_.trace().flight_note("fs.scrub", "unrepairable", host(), -1, ino,
                             blk);
    return;
  }
  auto req = std::make_shared<ReplFetchBlockReq>();
  req->ino = ino;
  req->blk = blk;
  rpc_.call(
      peer_, ServiceId::kFsRepl, static_cast<int>(ReplOp::kFetchBlock), req,
      [this, ino, blk](util::Result<Reply> r) {
        repairing_.erase({ino, blk});
        // Unlinked, overwritten or truncated away meanwhile: nothing to do.
        auto it = inodes_.find(ino);
        if (it == inodes_.end() || it->second.data.verify(blk)) return;
        auto rep = r.is_ok() && r->status.is_ok()
                       ? rpc::body_cast<ReplFetchBlockRep>(r->body)
                       : nullptr;
        if (rep != nullptr && rep->found &&
            it->second.data.repair(blk, rep->data)) {
          c_scrub_repaired_->inc();
          sim_.trace().flight_note("fs.scrub", "repaired", host(), -1, ino,
                                   blk);
        } else {
          c_scrub_unrepairable_->inc();
          sim_.trace().flight_note("fs.scrub", "unrepairable", host(), -1,
                                   ino, blk);
        }
      },
      rpc::CallOpts{.max_retries = 1, .no_park = true});
}

void FsServer::do_repl_fetch_block(const ReplFetchBlockReq& req,
                                   Respond respond) {
  auto rep = std::make_shared<ReplFetchBlockRep>();
  auto it = inodes_.find(req.ino);
  // Serve only a copy this replica can vouch for: a peer repairing its
  // corruption must not import ours.
  if (const Bytes* b = it == inodes_.end() ? nullptr
                                           : it->second.data.serve(req.blk)) {
    rep->found = true;
    rep->data = *b;
  }
  respond(Reply{Status::ok(), rep});
}

// ---------------------------------------------------------------------------
// Consistency helpers
// ---------------------------------------------------------------------------

void FsServer::update_sharing(Inode& node,
                              std::vector<HostId>* to_disable) {
  int writer_hosts = 0;
  int user_hosts = 0;
  for (const auto& [h, use] : node.users) {
    if (!use.any()) continue;
    ++user_hosts;
    if (use.writers > 0) ++writer_hosts;
  }
  const bool shared =
      writer_hosts >= 2 || (writer_hosts == 1 && user_hosts >= 2);
  if (shared && !node.write_shared) {
    node.write_shared = true;
    c_cache_disables_->inc();
    if (trace::Registry& tr = sim_.trace(); tr.tracing())
      tr.instant("fs", "caching disabled (write sharing)", rpc_.host(), -1,
                 {{"ino", std::to_string(node.ino)}});
    for (const auto& [h, use] : node.users)
      if (use.any()) to_disable->push_back(h);
  } else if (!shared && node.write_shared) {
    // Sharing ended; new opens may cache again. Hosts already bypassing
    // their caches continue to do so until they reopen (as in Sprite).
    node.write_shared = false;
  }
}

int FsServer::cache_misses(Ino ino, std::int64_t offset, std::int64_t len) {
  if (len <= 0) return 0;
  int misses = 0;
  const std::int64_t first = offset / costs_.block_size;
  const std::int64_t last = (offset + len - 1) / costs_.block_size;
  for (std::int64_t blk = first; blk <= last; ++blk) {
    const auto key = std::make_pair(ino, blk);
    auto it = cached_.find(key);
    if (it != cached_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      continue;
    }
    ++misses;
    lru_.push_front(key);
    cached_[key] = lru_.begin();
    if (static_cast<std::int64_t>(cached_.size()) >
        costs_.fs_server_cache_blocks) {
      cached_.erase(lru_.back());
      lru_.pop_back();
    }
  }
  c_disk_accesses_->inc(misses);
  return misses;
}

void FsServer::charge(Time cpu, int disk_blocks, std::function<void()> fn) {
  cpu_.submit(JobClass::kKernel, cpu,
              [this, disk_blocks, fn = std::move(fn)] {
                if (disk_blocks > 0) {
                  sim_.after(costs_.fs_disk_access * disk_blocks, "fs_disk",
                             std::move(fn));
                } else {
                  fn();
                }
              });
}

// ---------------------------------------------------------------------------
// kFsName dispatch
// ---------------------------------------------------------------------------

void FsServer::handle_name(HostId src, const Request& req, Respond respond) {
  if (role_ == Role::kBackup) {
    // Clients re-resolve the partition map on kNotPrimary and retry against
    // the other replica.
    c_rejected_->inc();
    return respond(error_reply(Err::kNotPrimary, "partition backup"));
  }
  switch (static_cast<NameOp>(req.op)) {
    case NameOp::kOpen: {
      auto body = rpc::body_cast<OpenReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      // A valid name-cache hint resolves by inode: no per-component lookup
      // CPU. A stale hint falls back to the full path below (do_open).
      const bool hint_ok =
          body->hint != kInvalidIno && inodes_.count(body->hint) != 0 &&
          !inodes_.at(body->hint).unlinked;
      sim::Time cpu = costs_.fs_open_cpu;
      if (!hint_ok) {
        const int ncomp = path_components(body->path);
        c_lookup_components_->inc(ncomp);
        cpu += costs_.fs_lookup_cpu_per_component * ncomp;
      } else {
        c_hinted_opens_->inc();
      }
      charge(cpu, 0,
             [this, src, body, hint_ok, respond = std::move(respond)]() mutable {
               do_open(src, *body, hint_ok, std::move(respond));
             });
      return;
    }
    case NameOp::kClose: {
      auto body = rpc::body_cast<CloseReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      charge(costs_.fs_open_cpu, 0,
             [this, src, body, respond = std::move(respond)]() mutable {
               do_close(src, *body, std::move(respond));
             });
      return;
    }
    case NameOp::kUnlink: {
      auto body = rpc::body_cast<PathReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      const int ncomp = path_components(body->path);
      c_lookup_components_->inc(ncomp);
      charge(costs_.fs_lookup_cpu_per_component * ncomp, 0,
             [this, body, respond = std::move(respond)]() mutable {
               const auto comps = split_path(body->path);
               auto parent_path = body->path;
               auto r = lookup(body->path);
               if (!r.is_ok()) return respond(error_reply(r.err(), body->path));
               // Find the parent and remove the entry.
               Ino cur = root_;
               for (std::size_t i = 0; i + 1 < comps.size(); ++i)
                 cur = inode(cur).children.at(comps[i]);
               inode(cur).children.erase(comps.back());
               Inode& victim = inode(*r);
               victim.unlinked = true;
               maybe_reap(*r);
               ReplRecord rec;
               rec.kind = ReplKind::kUnlink;
               rec.path = body->path;
               replicate({std::move(rec)},
                         [respond = std::move(respond)]() mutable {
                           respond(Reply{Status::ok(), nullptr});
                         });
             });
      return;
    }
    case NameOp::kMkdir: {
      auto body = rpc::body_cast<PathReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      const int ncomp = path_components(body->path);
      c_lookup_components_->inc(ncomp);
      charge(costs_.fs_lookup_cpu_per_component * ncomp, 0,
             [this, body, respond = std::move(respond)]() mutable {
               auto r = create_at(body->path, FileType::kDirectory);
               if (!r.is_ok())
                 return respond(error_reply(r.err(), body->path));
               ReplRecord rec;
               rec.kind = ReplKind::kMkdir;
               rec.path = body->path;
               rec.ino = *r;
               replicate({std::move(rec)},
                         [respond = std::move(respond)]() mutable {
                           respond(Reply{Status::ok(), nullptr});
                         });
             });
      return;
    }
    case NameOp::kStat: {
      auto body = rpc::body_cast<PathReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      const int ncomp = path_components(body->path);
      c_lookup_components_->inc(ncomp);
      charge(costs_.fs_lookup_cpu_per_component * ncomp, 0,
             [this, body, respond = std::move(respond)]() mutable {
               auto r = stat_path(body->path);
               if (!r.is_ok()) return respond(error_reply(r.err(), body->path));
               auto rep = std::make_shared<StatRep>();
               rep->st = *r;
               respond(Reply{Status::ok(), rep});
             });
      return;
    }
    case NameOp::kCreatePipe: {
      charge(costs_.fs_open_cpu, 0,
             [this, src, respond = std::move(respond)]() mutable {
               auto rep = std::make_shared<CreatePipeRep>();
               rep->id = create_pipe_inode(src);
               rep->generation = boot_generation_;
               respond(Reply{Status::ok(), rep});
             });
      return;
    }
    case NameOp::kRegisterPdev: {
      auto body = rpc::body_cast<RegisterPdevReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      charge(costs_.fs_open_cpu, 0,
             [this, body, respond = std::move(respond)]() mutable {
               auto r = create_pdev(body->path, body->owner_host, body->tag);
               if (!r.is_ok())
                 return respond(error_reply(r.err(), body->path));
               // Pseudo-device routing must survive a failover or load
               // sharing loses its daemon path; replicate the registration.
               ReplRecord rec;
               rec.kind = ReplKind::kPdev;
               rec.path = body->path;
               rec.ino = r->ino;
               rec.pdev_host = body->owner_host;
               rec.pdev_tag = body->tag;
               replicate({std::move(rec)},
                         [respond = std::move(respond)]() mutable {
                           respond(Reply{Status::ok(), nullptr});
                         });
             });
      return;
    }
  }
  respond(error_reply(Err::kNotSupported, "bad name op"));
}

void FsServer::do_open(HostId src, const OpenReq& req, bool hint_ok,
                       Respond respond) {
  c_opens_->inc();
  Ino ino = kInvalidIno;
  bool created = false;
  // Re-validate the hint: it was checked at dispatch time, but the open was
  // deferred through the CPU queue and the inode may have been unlinked and
  // reaped (or replaced by a snapshot resync) in between.
  if (hint_ok && inodes_.count(req.hint) != 0 &&
      !inodes_.at(req.hint).unlinked) {
    ino = req.hint;
  } else {
    auto r = lookup(req.path);
    if (!r.is_ok()) {
      if (!req.flags.create)
        return respond(error_reply(Err::kNoEnt, req.path));
      if (disk_full_) {
        c_nospace_->inc();
        return respond(error_reply(Err::kNoSpace, "disk full"));
      }
      r = create_at(req.path, FileType::kRegular);
      if (!r.is_ok()) return respond(error_reply(r.err(), req.path));
      created = true;
    }
    ino = *r;
  }
  Inode& node = inode(ino);

  if (node.type == FileType::kDirectory && req.flags.write)
    return respond(error_reply(Err::kAccess, "directory write"));

  if (node.type == FileType::kPseudoDevice) {
    auto rep = std::make_shared<OpenRep>();
    rep->result.id = FileId{host(), ino};
    rep->result.type = node.type;
    rep->result.pdev_host = node.pdev_host;
    rep->result.pdev_tag = node.pdev_tag;
    rep->result.cacheable = false;
    rep->result.generation = boot_generation_;
    return respond(Reply{Status::ok(), rep});
  }

  // Sequential write sharing: the last writing host may hold dirty blocks in
  // its cache; recall them before this open completes [NWO88].
  if (node.last_writer != sim::kInvalidHost && node.last_writer != src) {
    c_recalls_->inc();
    if (trace::Registry& tr = sim_.trace(); tr.tracing())
      tr.instant("fs", "dirty recall", rpc_.host(), -1,
                 {{"ino", std::to_string(ino)},
                  {"writer", std::to_string(node.last_writer)}});
    const HostId writer = node.last_writer;
    node.last_writer = sim::kInvalidHost;
    auto cb = std::make_shared<CallbackReq>();
    cb->id = FileId{host(), ino};
    rpc_.call(writer, ServiceId::kFsCallback,
              static_cast<int>(CallbackOp::kRecallDirty), cb,
              [this, src, req, ino, created, respond = std::move(respond)](
                  util::Result<Reply>) mutable {
                // Even on timeout (writer crashed) the open proceeds; the
                // dirty data is simply lost, as in a real client crash.
                finish_open(src, req, ino, created, std::move(respond));
              });
    return;
  }
  finish_open(src, req, ino, created, std::move(respond));
}

void FsServer::finish_open(HostId src, const OpenReq& req, Ino ino,
                           bool created, Respond respond) {
  // The dirty-recall round trip in do_open yields the simulator: a racing
  // unlink or a demotion's snapshot resync may have dropped the inode.
  // kStale sends the client back through reopen-by-path.
  if (inodes_.count(ino) == 0)
    return respond(error_reply(Err::kStale, "open raced unlink/failover"));
  Inode& node = inode(ino);
  if (req.flags.truncate) node.data.truncate(0);

  HostUse& use = node.users[src];
  if (req.flags.read) ++use.readers;
  if (req.flags.write) ++use.writers;

  std::vector<HostId> to_disable;
  update_sharing(node, &to_disable);
  for (HostId h : to_disable) {
    if (h == src && !node.users[src].any()) continue;
    auto cb = std::make_shared<CallbackReq>();
    cb->id = FileId{host(), ino};
    rpc_.call(h, ServiceId::kFsCallback,
              static_cast<int>(CallbackOp::kDisableCache), cb,
              [](util::Result<Reply>) {});
  }

  if (req.flags.write) {
    ++node.version;
    // A cacheable writer may accumulate dirty blocks; remember it so the
    // next open from elsewhere recalls them.
    node.last_writer = node.write_shared ? sim::kInvalidHost : src;
  }

  auto rep = std::make_shared<OpenRep>();
  rep->result.id = FileId{host(), ino};
  rep->result.type = node.type;
  rep->result.size = node.data.size();
  rep->result.version = node.version;
  rep->result.cacheable = !node.write_shared && !req.flags.no_cache;
  rep->result.generation = boot_generation_;

  // Durable effects of this open — a created file, a truncation — must reach
  // the backup before the client sees success. Version bumps from plain
  // write-opens are not worth a round trip: after a failover the client's
  // version check drops clean cached blocks, which costs cache hits, not
  // correctness.
  std::vector<ReplRecord> recs;
  if (created) {
    ReplRecord rec;
    rec.kind = ReplKind::kCreate;
    rec.path = req.path;
    rec.ino = ino;
    rec.version = node.version;
    recs.push_back(std::move(rec));
  } else if (req.flags.truncate) {
    ReplRecord rec;
    rec.kind = ReplKind::kTruncate;
    rec.ino = ino;
    rec.size = 0;
    rec.version = node.version;
    recs.push_back(std::move(rec));
  }
  replicate(std::move(recs), [rep, respond = std::move(respond)]() mutable {
    respond(Reply{Status::ok(), rep});
  });
}

void FsServer::do_close(HostId src, const CloseReq& req, Respond respond) {
  c_closes_->inc();
  Inode* node = handle_inode(req.id, req.gen, "close", respond);
  if (node == nullptr) return;
  auto it = node->users.find(src);
  if (it != node->users.end()) {
    if (req.flags.read && it->second.readers > 0) --it->second.readers;
    if (req.flags.write && it->second.writers > 0) --it->second.writers;
    if (!it->second.any()) node->users.erase(it);
  }
  if (node->type == FileType::kPipe) {
    // An end closed: parked peers must re-evaluate (EOF / EPIPE).
    notify_pipe_waiters(*node);
  } else {
    std::vector<HostId> to_disable;
    update_sharing(*node, &to_disable);  // sharing may end; no callbacks
  }
  maybe_reap(req.id.ino);
  respond(Reply{Status::ok(), nullptr});
}

// ---------------------------------------------------------------------------
// kFsIo dispatch
// ---------------------------------------------------------------------------

void FsServer::handle_io(HostId src, const Request& req, Respond respond) {
  if (role_ == Role::kBackup) {
    c_rejected_->inc();
    return respond(error_reply(Err::kNotPrimary, "partition backup"));
  }
  switch (static_cast<IoOp>(req.op)) {
    case IoOp::kRead: {
      auto body = rpc::body_cast<ReadReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      const int nblocks = static_cast<int>(
          (body->len + costs_.block_size - 1) / costs_.block_size);
      const int misses = cache_misses(body->id.ino, body->offset, body->len);
      charge(costs_.fs_block_cpu * std::max(1, nblocks), misses,
             [this, src, body, respond = std::move(respond)]() mutable {
               do_read(src, *body, std::move(respond));
             });
      return;
    }
    case IoOp::kWrite: {
      auto body = rpc::body_cast<WriteReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      const int nblocks = static_cast<int>(
          (static_cast<std::int64_t>(body->data.size()) + costs_.block_size -
           1) /
          costs_.block_size);
      // Writes allocate server cache blocks but need no disk read.
      cache_misses(body->id.ino, body->offset,
                   static_cast<std::int64_t>(body->data.size()));
      charge(costs_.fs_block_cpu * std::max(1, nblocks), 0,
             [this, src, body, respond = std::move(respond)]() mutable {
               do_write(src, *body, std::move(respond));
             });
      return;
    }
    case IoOp::kGroupRead:
    case IoOp::kGroupWrite: {
      auto body = rpc::body_cast<GroupIoReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      charge(costs_.fs_block_cpu, 0,
             [this, src, op = static_cast<IoOp>(req.op), body,
              respond = std::move(respond)]() mutable {
               do_group_io(src, op, *body, std::move(respond));
             });
      return;
    }
    case IoOp::kShareOffset: {
      auto body = rpc::body_cast<ShareOffsetReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      charge(costs_.fs_open_cpu, 0,
             [this, body, respond = std::move(respond)]() mutable {
               Inode* node =
                   handle_inode(body->id, body->gen, "share offset", respond);
               if (node == nullptr) return;
               // First promotion wins; later calls for the same group keep
               // the server's (authoritative) offset.
               node->group_offsets.emplace(body->group, body->offset);
               respond(Reply{Status::ok(), nullptr});
             });
      return;
    }
    case IoOp::kMigrateStream: {
      auto body = rpc::body_cast<MigrateStreamReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      charge(costs_.fs_open_cpu, 0,
             [this, body, respond = std::move(respond)]() mutable {
               do_migrate_stream(*body, std::move(respond));
             });
      return;
    }
    case IoOp::kPipeRead: {
      auto body = rpc::body_cast<PipeIoReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      charge(costs_.fs_block_cpu, 0,
             [this, src, body, respond = std::move(respond)]() mutable {
               do_pipe_read(src, *body, std::move(respond));
             });
      return;
    }
    case IoOp::kPipeWrite: {
      auto body = rpc::body_cast<PipeIoReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      charge(costs_.fs_block_cpu, 0,
             [this, src, body, respond = std::move(respond)]() mutable {
               do_pipe_write(src, *body, std::move(respond));
             });
      return;
    }
    case IoOp::kTruncate: {
      auto body = rpc::body_cast<TruncateReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      charge(costs_.fs_block_cpu, 0,
             [this, body, respond = std::move(respond)]() mutable {
               Inode* node =
                   handle_inode(body->id, body->gen, "truncate", respond);
               if (node == nullptr) return;
               node->data.truncate(body->size);
               ReplRecord rec;
               rec.kind = ReplKind::kTruncate;
               rec.ino = body->id.ino;
               rec.size = body->size;
               rec.version = node->version;
               replicate({std::move(rec)},
                         [respond = std::move(respond)]() mutable {
                           respond(Reply{Status::ok(), nullptr});
                         });
             });
      return;
    }
  }
  respond(error_reply(Err::kNotSupported, "bad io op"));
}

void FsServer::do_read(HostId, const ReadReq& req, Respond respond) {
  Inode* node = handle_inode(req.id, req.gen, "read", respond);
  if (node == nullptr) return;
  c_reads_->inc();
  const auto bad = node->data.corrupt_blocks(req.offset, req.len);
  if (!bad.empty()) {
    // Never serve bytes that fail verification: surface kCorrupt and kick a
    // repair so a later retry can succeed once the replica supplied the
    // block.
    c_read_detected_->inc();
    for (std::int64_t blk : bad) repair_block(req.id.ino, blk);
    return respond(error_reply(Err::kCorrupt, "read: checksum mismatch"));
  }
  auto rep = std::make_shared<ReadRep>();
  rep->data = node->data.read(req.offset, req.len);
  c_bytes_read_->inc(static_cast<std::int64_t>(rep->data.size()));
  respond(Reply{Status::ok(), rep});
}

void FsServer::do_write(HostId, const WriteReq& req, Respond respond) {
  Inode* node = handle_inode(req.id, req.gen, "write", respond);
  if (node == nullptr) return;
  write_through(*node, req.offset, req.data, std::move(respond),
                [node](std::int64_t written) {
                  auto rep = std::make_shared<WriteRep>();
                  rep->written = written;
                  rep->new_size = node->data.size();
                  return rep;
                });
}

void FsServer::do_group_io(HostId, IoOp op, const GroupIoReq& req,
                           Respond respond) {
  Inode* node = handle_inode(req.id, req.gen, "group io", respond);
  if (node == nullptr) return;
  auto it = node->group_offsets.find(req.group);
  if (it == node->group_offsets.end())
    return respond(error_reply(Err::kInval, "offset not server-managed"));

  std::int64_t& pos = it->second;
  if (op == IoOp::kGroupWrite) {
    return write_through(*node, pos, req.data, std::move(respond),
                         [&pos](std::int64_t written) {
                           auto rep = std::make_shared<GroupIoRep>();
                           rep->written = written;
                           pos += written;
                           rep->new_offset = pos;
                           return rep;
                         });
  }
  c_reads_->inc();
  if (!node->data.corrupt_blocks(pos, req.len).empty()) {
    c_read_detected_->inc();
    return respond(error_reply(Err::kCorrupt, "group read: checksum mismatch"));
  }
  auto rep = std::make_shared<GroupIoRep>();
  rep->data = node->data.read(pos, req.len);
  c_bytes_read_->inc(static_cast<std::int64_t>(rep->data.size()));
  pos += static_cast<std::int64_t>(rep->data.size());
  rep->new_offset = pos;
  respond(Reply{Status::ok(), rep});
}

void FsServer::notify_pipe_waiters(Inode& node) {
  if (node.pipe_waiters.empty()) return;
  std::vector<HostId> waiters;
  std::swap(waiters, node.pipe_waiters);
  std::sort(waiters.begin(), waiters.end());
  waiters.erase(std::unique(waiters.begin(), waiters.end()), waiters.end());
  for (HostId h : waiters) {
    c_pipe_wakeups_->inc();
    auto cb = std::make_shared<CallbackReq>();
    cb->id = FileId{host(), node.ino};
    rpc_.call(h, ServiceId::kFsCallback,
              static_cast<int>(CallbackOp::kPipeReady), cb,
              [](util::Result<Reply>) {});
  }
}

void FsServer::do_pipe_read(HostId src, const PipeIoReq& req,
                            Respond respond) {
  Inode* node = handle_inode(req.id, req.gen, "pipe read", respond,
                             /*pipe=*/true);
  if (node == nullptr) return;
  c_pipe_reads_->inc();

  if (!node->pipe_buffer.empty()) {
    const auto n = std::min<std::size_t>(
        static_cast<std::size_t>(req.len), node->pipe_buffer.size());
    auto rep = std::make_shared<PipeIoRep>();
    rep->data.assign(node->pipe_buffer.begin(),
                     node->pipe_buffer.begin() + static_cast<std::ptrdiff_t>(n));
    node->pipe_buffer.erase(
        node->pipe_buffer.begin(),
        node->pipe_buffer.begin() + static_cast<std::ptrdiff_t>(n));
    notify_pipe_waiters(*node);  // writers may proceed
    return respond(Reply{Status::ok(), rep});
  }

  int writers = 0;
  for (const auto& [h, use] : node->users) writers += use.writers;
  if (writers == 0) {
    auto rep = std::make_shared<PipeIoRep>();
    rep->eof = true;
    return respond(Reply{Status::ok(), rep});
  }
  node->pipe_waiters.push_back(src);
  respond(error_reply(Err::kWouldBlock, "pipe empty"));
}

void FsServer::do_pipe_write(HostId src, const PipeIoReq& req,
                             Respond respond) {
  Inode* node = handle_inode(req.id, req.gen, "pipe write", respond,
                             /*pipe=*/true);
  if (node == nullptr) return;
  c_pipe_writes_->inc();

  int readers = 0;
  for (const auto& [h, use] : node->users) readers += use.readers;
  if (readers == 0)
    return respond(error_reply(Err::kPipe, "no readers"));

  if (static_cast<std::int64_t>(node->pipe_buffer.size()) >=
      costs_.pipe_capacity) {
    node->pipe_waiters.push_back(src);
    return respond(error_reply(Err::kWouldBlock, "pipe full"));
  }
  node->pipe_buffer.insert(node->pipe_buffer.end(), req.data.begin(),
                           req.data.end());
  notify_pipe_waiters(*node);  // readers may proceed
  auto rep = std::make_shared<PipeIoRep>();
  rep->written = static_cast<std::int64_t>(req.data.size());
  respond(Reply{Status::ok(), rep});
}

void FsServer::do_migrate_stream(const MigrateStreamReq& req,
                                 Respond respond) {
  Inode* node = handle_inode(req.id, req.gen, "migrate stream", respond);
  if (node == nullptr) return;
  c_stream_migrations_->inc();
  if (trace::Registry& tr = sim_.trace(); tr.tracing())
    tr.instant("fs", "stream re-attributed", rpc_.host(), -1,
               {{"ino", std::to_string(req.id.ino)},
                {"from", std::to_string(req.from)},
                {"to", std::to_string(req.to)}});

  // Re-attributing a stream is semantically an open on the destination
  // host: any third host holding dirty cached data must be recalled first,
  // exactly as finish_open does (the source already flushed its own dirty
  // data before asking us to move the stream). Pipes have no caches.
  if (node->type != FileType::kPipe &&
      node->last_writer != sim::kInvalidHost &&
      node->last_writer != req.from && node->last_writer != req.to) {
    c_recalls_->inc();
    const HostId writer = node->last_writer;
    node->last_writer = sim::kInvalidHost;
    auto cb = std::make_shared<CallbackReq>();
    cb->id = req.id;
    rpc_.call(writer, ServiceId::kFsCallback,
              static_cast<int>(CallbackOp::kRecallDirty), cb,
              [this, req, respond = std::move(respond)](
                  util::Result<Reply>) mutable {
                do_migrate_stream(req, std::move(respond));
              });
    return;
  }

  // Move one open reference's attribution from the source host to the
  // destination host — unless the source keeps a fork-shared reference of
  // its own, in which case the destination simply gains one.
  if (!req.retain_source) {
    auto it = node->users.find(req.from);
    if (it != node->users.end()) {
      if (req.flags.read && it->second.readers > 0) --it->second.readers;
      if (req.flags.write && it->second.writers > 0) --it->second.writers;
      if (!it->second.any()) node->users.erase(it);
    }
  }
  HostUse& use = node->users[req.to];
  if (req.flags.read) ++use.readers;
  if (req.flags.write) ++use.writers;

  // The source flushed its dirty blocks before asking us to move the stream,
  // so it no longer holds dirty data.
  if (node->last_writer == req.from) node->last_writer = sim::kInvalidHost;
  if (req.flags.write && node->type != FileType::kPipe) {
    // The destination becomes a (potentially caching) writer: bump the
    // version exactly as a write-open would, so stale blocks cached on the
    // destination from an earlier visit are invalidated when the stream
    // arrives. (Without this, a process writing A -> B -> A loses B's
    // updates to A's stale cache.)
    ++node->version;
    node->last_writer = node->write_shared ? sim::kInvalidHost : req.to;
  }

  // Migration can create or destroy write sharing.
  std::vector<HostId> to_disable;
  update_sharing(*node, &to_disable);
  for (HostId h : to_disable) {
    auto cb = std::make_shared<CallbackReq>();
    cb->id = req.id;
    rpc_.call(h, ServiceId::kFsCallback,
              static_cast<int>(CallbackOp::kDisableCache), cb,
              [](util::Result<Reply>) {});
  }

  auto rep = std::make_shared<MigrateStreamRep>();
  rep->cacheable = !node->write_shared;
  rep->version = node->version;
  rep->size = node->data.size();
  rep->generation = boot_generation_;
  respond(Reply{Status::ok(), rep});
}

// ---------------------------------------------------------------------------
// Replication (primary/backup per namespace partition)
// ---------------------------------------------------------------------------

void FsServer::append_log(ReplRecord rec) {
  log_.push_back(std::move(rec));
  ++next_seq_;
  while (static_cast<std::int64_t>(log_.size()) >
         costs_.fs_repl_log_capacity) {
    log_.pop_front();
    ++log_start_seq_;
  }
}

void FsServer::replicate(std::vector<ReplRecord> recs,
                         std::function<void()> done) {
  if (recs.empty() || !replicated() || role_ != Role::kPrimary)
    return done();
  const std::int64_t first = next_seq_;
  for (const auto& r : recs) append_log(r);
  const auto n = static_cast<std::int64_t>(recs.size());
  if (peer_down_) {
    // Degraded mode: serve alone, remember how far the backup fell behind.
    c_repl_solo_->inc(n);
    unreplicated_ += n;
    return done();
  }
  auto req = std::make_shared<ReplApplyReq>();
  req->epoch = partition_epoch_;
  req->first_seq = first;
  req->records = std::move(recs);
  rpc_.call(
      peer_, ServiceId::kFsRepl, static_cast<int>(ReplOp::kApply), req,
      [this, n, done = std::move(done)](util::Result<Reply> r) mutable {
        if (!r.is_ok()) {
          // Backup unreachable: availability wins. The monitor will reach a
          // down verdict; a rebooted backup catches up by sequence number.
          c_repl_solo_->inc(n);
          unreplicated_ += n;
          return done();
        }
        if (!r->status.is_ok()) {
          if (r->status.err() == Err::kNotPrimary) {
            // A higher-epoch peer: we are the stale half of a split brain.
            auto rep = rpc::body_cast<ReplApplyRep>(r->body);
            demote(rep != nullptr ? rep->epoch : partition_epoch_ + 1,
                   "peer at higher epoch");
          }
          return done();
        }
        auto rep = rpc::body_cast<ReplApplyRep>(r->body);
        if (rep != nullptr && rep->last_applied + 1 >= next_seq_)
          unreplicated_ = 0;
        done();
      },
      rpc::CallOpts{.max_retries = 1, .no_park = true});
}

void FsServer::handle_repl(HostId src, const Request& req, Respond respond) {
  switch (static_cast<ReplOp>(req.op)) {
    case ReplOp::kApply: {
      auto body = rpc::body_cast<ReplApplyReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      const int n = std::max(1, static_cast<int>(body->records.size()));
      charge(costs_.fs_repl_apply_cpu * n, 0,
             [this, body, respond = std::move(respond)]() mutable {
               do_repl_apply(*body, std::move(respond));
             });
      return;
    }
    case ReplOp::kHello: {
      auto body = rpc::body_cast<ReplHelloReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      charge(costs_.fs_open_cpu, 0,
             [this, src, body, respond = std::move(respond)]() mutable {
               do_repl_hello(src, *body, std::move(respond));
             });
      return;
    }
    case ReplOp::kFetch: {
      auto body = rpc::body_cast<ReplFetchReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      charge(costs_.fs_open_cpu, 0,
             [this, body, respond = std::move(respond)]() mutable {
               do_repl_fetch(*body, std::move(respond));
             });
      return;
    }
    case ReplOp::kFetchBlock: {
      auto body = rpc::body_cast<ReplFetchBlockReq>(req.body);
      SPRITE_CHECK(body != nullptr);
      // Served by either role: a primary scrubbing itself repairs from its
      // backup just as a backup repairs from its primary.
      charge(costs_.fs_block_cpu, 1,
             [this, body, respond = std::move(respond)]() mutable {
               do_repl_fetch_block(*body, std::move(respond));
             });
      return;
    }
  }
  respond(error_reply(Err::kNotSupported, "bad repl op"));
}

void FsServer::do_repl_apply(const ReplApplyReq& req, Respond respond) {
  const bool sender_stale =
      req.epoch < partition_epoch_ ||
      (req.epoch == partition_epoch_ && role_ == Role::kPrimary &&
       configured_primary_);
  if (sender_stale) {
    auto rep = std::make_shared<ReplApplyRep>();
    rep->epoch = partition_epoch_;
    rep->last_applied = last_applied_;
    return respond(Reply{Status(Err::kNotPrimary, "stale primary"), rep});
  }
  if (role_ == Role::kPrimary)
    demote(req.epoch, "apply from higher-epoch peer");
  partition_epoch_ = std::max(partition_epoch_, req.epoch);
  peer_down_ = false;
  auto rep = std::make_shared<ReplApplyRep>();
  for (std::size_t i = 0; i < req.records.size(); ++i) {
    const std::int64_t seq = req.first_seq + static_cast<std::int64_t>(i);
    if (seq <= last_applied_) continue;  // duplicate delivery
    if (seq != last_applied_ + 1) {
      // Sequence gap (we were down or unreachable for earlier records):
      // pull the missing suffix ourselves.
      rep->need_from = last_applied_ + 1;
      start_catchup(false);
      break;
    }
    apply_record(req.records[i]);
    last_applied_ = seq;
    c_repl_applied_->inc();
  }
  rep->epoch = partition_epoch_;
  rep->last_applied = last_applied_;
  respond(Reply{Status::ok(), rep});
}

void FsServer::do_repl_hello(HostId src, const ReplHelloReq& req,
                             Respond respond) {
  peer_down_ = false;
  bool sender_primary;
  if (req.epoch > partition_epoch_) {
    sender_primary = true;
  } else if (req.epoch < partition_epoch_) {
    sender_primary = false;
  } else {
    sender_primary = !configured_primary_;  // tie: configured primary wins
  }
  if (sender_primary) {
    if (role_ == Role::kPrimary) {
      demote(req.epoch, "hello from higher-epoch peer");
    } else {
      partition_epoch_ = std::max(partition_epoch_, req.epoch);
      start_catchup(false);
    }
  } else {
    // We own the partition (again); the rebooted backup catches up on its
    // own once it learns our answer.
    role_ = Role::kPrimary;
  }
  auto rep = std::make_shared<ReplHelloRep>();
  rep->epoch = partition_epoch_;
  rep->i_am_primary = role_ == Role::kPrimary;
  rep->next_seq = next_seq_;
  sim_.trace().flight_note("fs.repl", "hello_served", host(), -1,
                           static_cast<std::int64_t>(src), partition_epoch_);
  respond(Reply{Status::ok(), rep});
}

void FsServer::do_repl_fetch(const ReplFetchReq& req, Respond respond) {
  if (role_ != Role::kPrimary)
    return respond(error_reply(Err::kNotPrimary, "fetch from non-primary"));
  peer_down_ = false;
  auto rep = std::make_shared<ReplFetchRep>();
  rep->epoch = partition_epoch_;
  if (req.from_seq <= 0 || req.from_seq < log_start_seq_) {
    rep->snapshot = true;
    rep->inodes = snapshot_inodes();
    rep->snap_seq = next_seq_ - 1;
    rep->next_ino = next_ino_;
  } else {
    rep->first_seq = req.from_seq;
    for (std::int64_t seq = req.from_seq; seq < next_seq_; ++seq)
      rep->records.push_back(
          log_[static_cast<std::size_t>(seq - log_start_seq_)]);
  }
  respond(Reply{Status::ok(), rep});
}

void FsServer::start_catchup(bool want_snapshot) {
  if (!replicated() || syncing_) return;
  syncing_ = true;
  auto req = std::make_shared<ReplFetchReq>();
  req->from_seq = want_snapshot ? 0 : last_applied_ + 1;
  rpc_.call(
      peer_, ServiceId::kFsRepl, static_cast<int>(ReplOp::kFetch), req,
      [this](util::Result<Reply> r) {
        syncing_ = false;
        if (!r.is_ok() || !r->status.is_ok()) return;  // retried on next gap
        auto rep = rpc::body_cast<ReplFetchRep>(r->body);
        SPRITE_CHECK(rep != nullptr);
        partition_epoch_ = std::max(partition_epoch_, rep->epoch);
        if (rep->snapshot) {
          install_snapshot(*rep);
          c_repl_snapshots_->inc();
        } else {
          for (std::size_t i = 0; i < rep->records.size(); ++i) {
            const std::int64_t seq =
                rep->first_seq + static_cast<std::int64_t>(i);
            if (seq != last_applied_ + 1) continue;
            apply_record(rep->records[i]);
            last_applied_ = seq;
            c_repl_catchup_->inc();
          }
        }
        sim_.trace().flight_note("fs.repl", "caught_up", host(), -1,
                                 partition_, last_applied_);
      },
      rpc::CallOpts{.max_retries = 1, .no_park = true});
}

void FsServer::install_snapshot(const ReplFetchRep& rep) {
  // Replace disk state wholesale. A backup holds no client attributions or
  // other memory state worth keeping; the block cache restarts cold.
  inodes_.clear();
  for (const auto& im : rep.inodes) {
    Inode& node = add_inode(im.ino, im.type);
    node.version = im.version;
    for (const auto& [name, child] : im.children)
      node.children.emplace(name, child);
    // The primary's sums and taint come along: corruption there stays
    // corruption here.
    node.data.import(im.blocks, im.size);
    node.pdev_host = im.pdev_host;
    node.pdev_tag = im.pdev_tag;
  }
  SPRITE_CHECK_MSG(inodes_.count(root_) != 0, "snapshot lost the root");
  next_ino_ = std::max(next_ino_, rep.next_ino);
  last_applied_ = rep.snap_seq;
  next_seq_ = last_applied_ + 1;
  log_.clear();
  log_start_seq_ = next_seq_;
  lru_.clear();
  cached_.clear();
}

std::vector<InodeImage> FsServer::snapshot_inodes() const {
  std::vector<InodeImage> out;
  out.reserve(inodes_.size());
  for (const auto& [ino, node] : inodes_) {
    // Pipes and unlinked-but-open files are memory-lifetime objects: they
    // would not survive a crash here, so they do not belong in a replica.
    if (node.type == FileType::kPipe || node.unlinked) continue;
    InodeImage im;
    im.ino = ino;
    im.type = node.type;
    im.size = node.data.size();
    im.version = node.version;
    for (const auto& [name, child] : node.children)
      im.children.emplace_back(name, child);
    im.blocks = node.data.records();
    im.pdev_host = node.pdev_host;
    im.pdev_tag = node.pdev_tag;
    out.push_back(std::move(im));
  }
  return out;
}

Ino FsServer::create_with_ino(const std::string& path, FileType type,
                              Ino ino) {
  const auto comps = split_path(path);
  if (comps.empty() || ino == kInvalidIno) return kInvalidIno;
  Ino cur = root_;
  for (std::size_t i = 0; i + 1 < comps.size(); ++i) {
    Inode& node = inode(cur);
    if (node.type != FileType::kDirectory) return kInvalidIno;
    auto it = node.children.find(comps[i]);
    if (it != node.children.end()) {
      cur = it->second;
      continue;
    }
    // Missing parent (parents normally replicate first); recover with a
    // fresh directory so the record still lands.
    const Ino dir = next_ino_++;
    add_inode(dir, FileType::kDirectory);
    node.children.emplace(comps[i], dir);
    cur = dir;
  }
  Inode& parent = inode(cur);
  if (parent.type != FileType::kDirectory) return kInvalidIno;
  auto it = parent.children.find(comps.back());
  if (it != parent.children.end()) return it->second;  // idempotent re-apply
  if (inodes_.count(ino) != 0) {
    // Divergent ino: a local allocation already claimed this number for a
    // different file. Cross-linking the new name onto it would leave a
    // dangling directory entry once either name is unlinked and reaped;
    // drop the record and let the next snapshot resync reconcile.
    c_repl_divergent_->inc();
    return kInvalidIno;
  }
  add_inode(ino, type);
  parent.children.emplace(comps.back(), ino);
  next_ino_ = std::max(next_ino_, ino + 1);
  return ino;
}

void FsServer::apply_record(const ReplRecord& rec) {
  switch (rec.kind) {
    case ReplKind::kCreate:
    case ReplKind::kMkdir: {
      const Ino ino = create_with_ino(
          rec.path,
          rec.kind == ReplKind::kMkdir ? FileType::kDirectory
                                       : FileType::kRegular,
          rec.ino);
      if (ino != kInvalidIno) {
        Inode& node = inode(ino);
        node.version = std::max(node.version, rec.version);
        // Harness-seeded files arrive pre-sized with no write records.
        node.data.extend(rec.size);
      }
      return;
    }
    case ReplKind::kUnlink: {
      auto r = lookup(rec.path);
      if (!r.is_ok()) return;
      const auto comps = split_path(rec.path);
      Ino cur = root_;
      for (std::size_t i = 0; i + 1 < comps.size(); ++i) {
        auto it = inode(cur).children.find(comps[i]);
        if (it == inode(cur).children.end()) return;
        cur = it->second;
      }
      inode(cur).children.erase(comps.back());
      Inode& victim = inode(*r);
      victim.unlinked = true;
      maybe_reap(*r);
      return;
    }
    case ReplKind::kWrite: {
      Inode* node = find_inode(rec.ino);
      if (node == nullptr) return;
      pwrite(*node, rec.offset, rec.data);
      node->data.extend(rec.size);
      node->version = std::max(node->version, rec.version);
      return;
    }
    case ReplKind::kTruncate: {
      Inode* node = find_inode(rec.ino);
      if (node == nullptr) return;
      node->data.truncate(rec.size);
      node->version = std::max(node->version, rec.version);
      return;
    }
    case ReplKind::kPdev: {
      const Ino ino =
          create_with_ino(rec.path, FileType::kPseudoDevice, rec.ino);
      if (ino == kInvalidIno) return;
      Inode& node = inode(ino);
      node.pdev_host = rec.pdev_host;
      node.pdev_tag = rec.pdev_tag;
      return;
    }
  }
}

void FsServer::promote(const char* why) {
  if (role_ == Role::kPrimary) return;
  role_ = Role::kPrimary;
  ++partition_epoch_;
  next_seq_ = last_applied_ + 1;
  log_.clear();
  log_start_seq_ = next_seq_;
  syncing_ = false;
  c_promotions_->inc();
  sim_.trace().flight_note("fs.failover", "promoted", host(), -1, partition_,
                           partition_epoch_);
  if (trace::Registry& tr = sim_.trace(); tr.tracing())
    tr.instant("fs", "partition promoted", host(), -1,
               {{"partition", std::to_string(partition_)},
                {"epoch", std::to_string(partition_epoch_)},
                {"why", why}});
}

void FsServer::demote(std::int64_t new_epoch, const char* why) {
  const bool was_primary = role_ == Role::kPrimary;
  role_ = Role::kBackup;
  partition_epoch_ = std::max(partition_epoch_, new_epoch);
  if (was_primary) {
    c_demotions_->inc();
    // Records the peer never acked diverged on our side of the split. The
    // snapshot resync below discards them: with synchronous replication no
    // client saw an ack for them unless they were served during a solo
    // (double-failure) window — which is exactly what this counter surfaces.
    c_repl_divergent_->inc(unreplicated_);
    unreplicated_ = 0;
    last_applied_ = 0;
    syncing_ = false;
    start_catchup(/*want_snapshot=*/true);
  }
  sim_.trace().flight_note("fs.failover", "demoted", host(), -1, partition_,
                           partition_epoch_);
  if (trace::Registry& tr = sim_.trace(); tr.tracing())
    tr.instant("fs", "partition demoted", host(), -1,
               {{"partition", std::to_string(partition_)}, {"why", why}});
}

void FsServer::boot() {
  down_ = false;
  // Recover the pending write before serving anything: a write
  // interrupted by the crash is either replayed whole (intact record) or
  // discarded whole (torn record) — never half-applied.
  journal_recover();
  if (!replicated()) return;
  peer_down_ = false;
  syncing_ = false;
  // Until the peer answers, act as a backup: a stale pre-crash primary must
  // not serve divergent data to clients that already failed over.
  const bool claimed_primary = role_ == Role::kPrimary;
  role_ = Role::kBackup;
  auto req = std::make_shared<ReplHelloReq>();
  req->epoch = partition_epoch_;
  req->claims_primary = claimed_primary;
  req->last_applied = last_applied_;
  sim_.trace().flight_note("fs.repl", "hello", host(), -1, partition_,
                           partition_epoch_);
  rpc_.call(
      peer_, ServiceId::kFsRepl, static_cast<int>(ReplOp::kHello), req,
      [this, claimed_primary](util::Result<Reply> r) {
        if (!r.is_ok() || !r->status.is_ok()) {
          // Peer unreachable: someone must own the partition — take it.
          peer_down_ = true;
          if (claimed_primary)
            role_ = Role::kPrimary;
          else
            promote("peer unreachable at boot");
          return;
        }
        auto rep = rpc::body_cast<ReplHelloRep>(r->body);
        SPRITE_CHECK(rep != nullptr);
        peer_down_ = false;
        partition_epoch_ = std::max(partition_epoch_, rep->epoch);
        if (rep->i_am_primary) {
          if (claimed_primary) {
            // We were the primary when we crashed; the backup took over and
            // its timeline won. Resync from scratch.
            c_demotions_->inc();
            c_repl_divergent_->inc(unreplicated_);
            unreplicated_ = 0;
            last_applied_ = 0;
            start_catchup(/*want_snapshot=*/true);
          } else {
            start_catchup(/*want_snapshot=*/false);
          }
        } else {
          // The peer yielded: we own the partition again.
          role_ = Role::kPrimary;
        }
      },
      rpc::CallOpts{.max_retries = 1, .no_park = true});
}

std::vector<sim::HostId> FsServer::collect_peer_interest() const {
  if (!replicated()) return {};
  return {peer_};
}

// ---------------------------------------------------------------------------
// Crash / recovery
// ---------------------------------------------------------------------------

void FsServer::crash_reset() {
  ++boot_generation_;
  down_ = true;  // scrub ticks idle until boot()
  repairing_.clear();
  for (auto it = inodes_.begin(); it != inodes_.end();) {
    Inode& node = it->second;
    // Pipes are kernel buffers, not disk objects: gone with the crash.
    // Unlinked-but-open files were kept alive only by open streams, and
    // every open attribution just evaporated — reap them too.
    if (node.type == FileType::kPipe ||
        (node.unlinked && node.ino != root_)) {
      it = inodes_.erase(it);
      continue;
    }
    // Memory-only consistency state is lost; disk contents survive.
    node.users.clear();
    node.write_shared = false;
    node.last_writer = sim::kInvalidHost;
    node.group_offsets.clear();
    node.pipe_waiters.clear();
    ++it;
  }
  lru_.clear();
  cached_.clear();
  // Replication: role/epoch/seq marks live on the superblock and survive;
  // the in-memory record log does not. A peer that fell behind past this
  // point resyncs with a snapshot (log_start_seq_ just moved past it).
  log_.clear();
  log_start_seq_ = next_seq_;
  peer_down_ = false;
  syncing_ = false;
}

void FsServer::peer_crashed(HostId h) {
  if (replicated() && h == peer_) {
    peer_down_ = true;
    syncing_ = false;
    if (role_ == Role::kBackup) promote("primary declared down");
  }
  std::vector<Ino> touched;
  for (auto& [ino, node] : inodes_) {
    const bool used = node.users.erase(h) > 0;
    // Any dirty blocks h cached are lost; nothing left to recall.
    if (node.last_writer == h) node.last_writer = sim::kInvalidHost;
    node.pipe_waiters.erase(
        std::remove(node.pipe_waiters.begin(), node.pipe_waiters.end(), h),
        node.pipe_waiters.end());
    if (!used) continue;
    touched.push_back(ino);
    std::vector<HostId> to_disable;
    update_sharing(node, &to_disable);  // sharing may end; no new callbacks
    // Pipe readers/writers died with h: parked peers must re-evaluate
    // (EOF when the writers are gone, EPIPE when the readers are).
    if (node.type == FileType::kPipe) notify_pipe_waiters(node);
  }
  for (Ino ino : touched) maybe_reap(ino);
}

}  // namespace sprite::fs
