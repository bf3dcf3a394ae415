#include "fs/client.h"

#include <algorithm>

#include "fs/pdev.h"
#include "util/assert.h"
#include "util/async.h"
#include "util/log.h"

namespace sprite::fs {

using rpc::Reply;
using rpc::Request;
using rpc::ServiceId;
using sim::HostId;
using sim::Time;
using util::Err;
using util::Status;

FsClient::FsClient(sim::Simulator& sim, sim::Cpu& cpu, rpc::RpcNode& rpc,
                   const sim::Costs& costs)
    : sim_(sim), cpu_(cpu), rpc_(rpc), costs_(costs) {
  trace::Registry& tr = sim_.trace();
  const sim::HostId self = rpc_.host();
  c_cache_hit_ = &tr.counter("fs.client.block.hit", self);
  c_cache_miss_ = &tr.counter("fs.client.block.miss", self);
  c_remote_reads_ = &tr.counter("fs.client.read.sent", self);
  c_remote_writes_ = &tr.counter("fs.client.write.sent", self);
  c_name_hits_ = &tr.counter("fs.client.name_cache.hit", self);
  c_name_stale_ = &tr.counter("fs.client.name_cache.stale", self);
  c_writeback_bytes_ = &tr.counter("fs.client.writeback.bytes", self);
  c_recalls_ = &tr.counter("fs.client.recall.served", self);
  c_cache_disables_ = &tr.counter("fs.client.cache.disabled", self);
  c_stale_reopens_ = &tr.counter("fs.client.stale.reopen", self);
  c_dirty_lost_ = &tr.counter("fs.cache.dirty_lost", self);
  c_suspect_flush_ = &tr.counter("fs.cache.suspect_flush", self);
  c_reroutes_ = &tr.counter("fs.failover.reroutes", self);
  c_failover_reopens_ = &tr.counter("fs.failover.reopens", self);
  c_rehomed_ = &tr.counter("fs.failover.rehomed_blocks", self);
  h_failover_ms_ = &tr.histogram("fs.failover.latency_ms",
                                 trace::default_latency_bounds_ms(), self);
}

void FsClient::register_services() {
  rpc_.register_service(
      ServiceId::kFsCallback,
      [this](HostId, const Request& req, std::function<void(Reply)> respond) {
        handle_callback(req, std::move(respond));
      });
}

// ---------------------------------------------------------------------------
// Prefix table
// ---------------------------------------------------------------------------

void FsClient::add_prefix(const std::string& prefix, HostId server) {
  add_prefix(prefix, std::vector<HostId>{server});
}

void FsClient::add_prefix(const std::string& prefix,
                          std::vector<HostId> replicas) {
  SPRITE_CHECK(!replicas.empty());
  prefixes_.push_back(PrefixEntry{prefix, std::move(replicas), 0});
}

util::Result<HostId> FsClient::route(const std::string& path) const {
  const PrefixEntry* best = nullptr;
  for (const auto& e : prefixes_) {
    if (path.compare(0, e.prefix.size(), e.prefix) != 0) continue;
    if (best == nullptr || e.prefix.size() > best->prefix.size()) best = &e;
  }
  if (best == nullptr) return {Err::kNoEnt, "no prefix for " + path};
  return best->replicas[best->active];
}

bool FsClient::path_replicated(const std::string& path) const {
  const PrefixEntry* best = nullptr;
  for (const auto& e : prefixes_) {
    if (path.compare(0, e.prefix.size(), e.prefix) != 0) continue;
    if (best == nullptr || e.prefix.size() > best->prefix.size()) best = &e;
  }
  return best != nullptr && best->replicas.size() >= 2;
}

void FsClient::flip_route_away(HostId bad) {
  bool flipped = false;
  for (auto& e : prefixes_) {
    if (e.replicas.size() < 2 || e.replicas[e.active] != bad) continue;
    e.active = (e.active + 1) % e.replicas.size();
    c_reroutes_->inc();
    flipped = true;
    sim_.trace().flight_note("fs.failover", "reroute", rpc_.host(), -1, bad,
                             e.replicas[e.active]);
  }
  if (flipped && failover_started_.find(bad) == failover_started_.end())
    failover_started_[bad] = sim_.now();
}

void FsClient::note_failover_done(HostId dead) {
  auto it = failover_started_.find(dead);
  if (it == failover_started_.end()) return;
  const sim::Time lat = sim_.now() - it->second;
  failover_started_.erase(it);
  h_failover_ms_->record(lat);
  sim_.trace().flight_note("fs.failover", "recovered", rpc_.host(), -1, dead,
                           static_cast<std::int64_t>(lat.ms()));
}

std::int64_t FsClient::new_group_id() {
  return ((static_cast<std::int64_t>(rpc_.host()) + 1) << 32) | next_group_++;
}

FsClient::FileState& FsClient::state_for(FileId id) { return files_[id]; }

std::int64_t FsClient::gen_for(FileId id) const {
  auto it = files_.find(id);
  return it == files_.end() ? 0 : it->second.gen;
}

// ---------------------------------------------------------------------------
// Name operations
// ---------------------------------------------------------------------------

void FsClient::open(const std::string& path, OpenFlags flags, OpenCb cb) {
  const auto rt = route(path);
  const HostId attempted = rt.is_ok() ? *rt : sim::kInvalidHost;
  open_once(path, flags, [this, path, flags, attempted, cb = std::move(cb)](
                             util::Result<StreamPtr> r) mutable {
    const Err e = r.is_ok() ? Err::kOk : r.status().err();
    if (e == Err::kNotPrimary && attempted != sim::kInvalidHost) {
      // The active replica answered but was demoted: flip to its peer and
      // retry once. A second failure propagates.
      flip_route_away(attempted);
      open_once(path, flags,
                [this, attempted,
                 cb = std::move(cb)](util::Result<StreamPtr> r2) mutable {
                  if (r2.is_ok()) note_failover_done(attempted);
                  cb(std::move(r2));
                });
      return;
    }
    if (e == Err::kTimedOut && attempted != sim::kInvalidHost) {
      // The server stopped answering. The down verdict that flips our
      // routes fires just after parked calls fail, so look again a beat
      // later; if a replica took over, this open can still succeed.
      sim_.after(Time::msec(1), "fs_retry",
                 [this, path, flags, attempted,
                  r = std::move(r), cb = std::move(cb)]() mutable {
        auto rt2 = route(path);
        if (!rt2.is_ok() || *rt2 == attempted) return cb(std::move(r));
        open_once(path, flags,
                  [this, attempted,
                   cb = std::move(cb)](util::Result<StreamPtr> r2) mutable {
                    if (r2.is_ok()) note_failover_done(attempted);
                    cb(std::move(r2));
                  });
      });
      return;
    }
    cb(std::move(r));
  });
}

void FsClient::open_once(const std::string& path, OpenFlags flags, OpenCb cb) {
  auto server = route(path);
  if (!server.is_ok()) return cb(server.status());
  auto body = std::make_shared<OpenReq>();
  body->path = path;
  body->flags = flags;
  if (name_cache_enabled_) {
    auto it = name_cache_.find(path);
    if (it != name_cache_.end()) {
      body->hint = it->second;
      c_name_hits_->inc();
    }
  }
  if (trace::Registry& tr = sim_.trace(); tr.tracing())
    tr.instant("fs", "open", rpc_.host(), -1,
               {{"path", path},
                {"hinted", body->hint != kInvalidIno ? "1" : "0"}});
  rpc_.call(
      *server, ServiceId::kFsName, static_cast<int>(NameOp::kOpen), body,
      [this, path, flags, body, cb = std::move(cb)](util::Result<Reply> r) {
        if (!r.is_ok()) return cb(r.status());
        if (!r->status.is_ok()) {
          if (body->hint != kInvalidIno) {
            // Stale hint (e.g. the file was replaced): drop the cached name
            // and retry with a full lookup.
            c_name_stale_->inc();
            name_cache_.erase(path);
            auto retry = std::make_shared<OpenReq>();
            retry->path = path;
            retry->flags = flags;
            auto cb2 = std::move(cb);
            rpc_.call(*route(path), ServiceId::kFsName,
                      static_cast<int>(NameOp::kOpen), retry,
                      [this, path, flags, cb2 = std::move(cb2)](
                          util::Result<Reply> r2) {
                        if (!r2.is_ok()) return cb2(r2.status());
                        if (!r2->status.is_ok()) return cb2(r2->status);
                        finish_open(path, flags, r2->body, std::move(cb2));
                      });
            return;
          }
          return cb(r->status);
        }
        finish_open(path, flags, r->body, std::move(cb));
      });
}

void FsClient::finish_open(const std::string& path, OpenFlags flags,
                           const rpc::MessagePtr& reply_body, OpenCb cb) {
  auto rep = rpc::body_cast<OpenRep>(reply_body);
  SPRITE_CHECK(rep != nullptr);
  const OpenResult& res = rep->result;

  auto s = std::make_shared<Stream>();
  s->group = new_group_id();
  s->file = res.id;
  s->type = res.type;
  s->flags = flags;
  s->cacheable = res.cacheable;
  s->size_hint = res.size;
  s->path = path;
  s->gen = res.generation;
  s->pdev_host = res.pdev_host;
  s->pdev_tag = res.pdev_tag;

  if (res.type == FileType::kRegular) {
    if (name_cache_enabled_) name_cache_[path] = res.id.ino;
    FileState& st = state_for(res.id);
    if (st.version != res.version) {
      // Our cached blocks predate the latest write-open elsewhere.
      // The consistency protocol guarantees dirty data was recalled
      // before the version moved, so everything left is safely
      // discardable.
      for (auto it = st.blocks.begin(); it != st.blocks.end();) {
        auto lit = lru_index_.find({res.id, it->first});
        if (lit != lru_index_.end()) {
          lru_.erase(lit->second);
          lru_index_.erase(lit);
        }
        it = st.blocks.erase(it);
      }
      st.version = res.version;
    }
    st.cacheable = res.cacheable;
    st.size = res.size;
    st.gen = res.generation;
    st.path = path;
    st.flush_failures = 0;
    ++st.open_streams;
  }
  cb(s);
}

void FsClient::close(const StreamPtr& s, StatusCb cb) {
  if (s->type == FileType::kPseudoDevice) {
    sim_.after(Time::zero(), [cb = std::move(cb)] { cb(Status::ok()); });
    return;
  }
  auto it = files_.find(s->file);
  if (it != files_.end() && it->second.open_streams > 0)
    --it->second.open_streams;
  auto body = std::make_shared<CloseReq>();
  body->id = s->file;
  body->flags = s->flags;
  body->gen = s->gen;
  rpc_.call(s->file.server, ServiceId::kFsName,
            static_cast<int>(NameOp::kClose), body,
            [cb = std::move(cb)](util::Result<Reply> r) {
              cb(r.is_ok() ? r->status : r.status());
            });
}

void FsClient::unlink(const std::string& path, StatusCb cb) {
  name_cache_.erase(path);
  auto server = route(path);
  if (!server.is_ok()) return cb(server.status());
  auto body = std::make_shared<PathReq>();
  body->path = path;
  rpc_.call(*server, ServiceId::kFsName, static_cast<int>(NameOp::kUnlink),
            body, [cb = std::move(cb)](util::Result<Reply> r) {
              cb(r.is_ok() ? r->status : r.status());
            });
}

void FsClient::mkdir(const std::string& path, StatusCb cb) {
  auto server = route(path);
  if (!server.is_ok()) return cb(server.status());
  auto body = std::make_shared<PathReq>();
  body->path = path;
  rpc_.call(*server, ServiceId::kFsName, static_cast<int>(NameOp::kMkdir),
            body, [cb = std::move(cb)](util::Result<Reply> r) {
              cb(r.is_ok() ? r->status : r.status());
            });
}

void FsClient::stat(const std::string& path, StatCb cb) {
  auto server = route(path);
  if (!server.is_ok()) return cb(server.status());
  auto body = std::make_shared<PathReq>();
  body->path = path;
  rpc_.call(*server, ServiceId::kFsName, static_cast<int>(NameOp::kStat), body,
            [cb = std::move(cb)](util::Result<Reply> r) {
              if (!r.is_ok()) return cb(r.status());
              if (!r->status.is_ok()) return cb(r->status);
              auto rep = rpc::body_cast<StatRep>(r->body);
              SPRITE_CHECK(rep != nullptr);
              cb(rep->st);
            });
}

// ---------------------------------------------------------------------------
// I/O
// ---------------------------------------------------------------------------

util::Status FsClient::seek(const StreamPtr& s, std::int64_t offset) {
  if (s->server_offset)
    return Status(Err::kInval, "offset is server-managed");
  if (offset < 0) return Status(Err::kInval, "negative offset");
  s->offset = offset;
  return Status::ok();
}

void FsClient::read(const StreamPtr& s, std::int64_t len, ReadCb cb) {
  if (s->type == FileType::kPseudoDevice)
    return cb(Status(Err::kNotSupported, "use pdev_call"));
  if (!s->flags.read) return cb(Status(Err::kBadF, "not open for reading"));
  if (s->type == FileType::kPipe) return pipe_read(s, len, std::move(cb));

  if (s->server_offset) {
    auto body = std::make_shared<GroupIoReq>();
    body->id = s->file;
    body->group = s->group;
    body->len = len;
    body->gen = s->gen;
    rpc_.call(s->file.server, ServiceId::kFsIo,
              static_cast<int>(IoOp::kGroupRead), body,
              [cb = std::move(cb)](util::Result<Reply> r) {
                if (!r.is_ok()) return cb(r.status());
                if (!r->status.is_ok()) return cb(r->status);
                auto rep = rpc::body_cast<GroupIoRep>(r->body);
                SPRITE_CHECK(rep != nullptr);
                cb(rep->data);
              });
    return;
  }

  const std::int64_t offset = s->offset;
  auto done = [s, cb = std::move(cb)](util::Result<Bytes> r) {
    if (r.is_ok()) s->offset += static_cast<std::int64_t>(r->size());
    cb(std::move(r));
  };

  auto attempt = [this, s, offset, len](ReadCb k) {
    const auto it = files_.find(s->file);
    const bool use_cache = s->cacheable && !s->flags.no_cache &&
                           it != files_.end() && it->second.cacheable;
    if (use_cache) {
      cached_read(s, offset, len, std::move(k));
    } else {
      remote_read(s->file, offset, len, std::move(k));
    }
  };
  retry_once_on_stale<Bytes>(s, std::move(attempt), std::move(done));
}

void FsClient::cached_read(const StreamPtr& s, std::int64_t offset,
                           std::int64_t len, ReadCb cb) {
  FileState& st = state_for(s->file);
  len = std::min(len, st.size - offset);
  if (len <= 0) return cb(Bytes{});

  const std::int64_t first = offset / costs_.block_size;
  const std::int64_t last = (offset + len - 1) / costs_.block_size;

  // Collect missing block runs.
  std::vector<std::pair<std::int64_t, std::int64_t>> runs;
  for (std::int64_t blk = first; blk <= last; ++blk) {
    if (st.blocks.count(blk)) {
      c_cache_hit_->inc();
      touch_lru(s->file, blk);
      continue;
    }
    c_cache_miss_->inc();
    if (!runs.empty() && runs.back().second == blk - 1) {
      runs.back().second = blk;
    } else {
      runs.emplace_back(blk, blk);
    }
  }

  auto assemble = [this, s, offset, len, cb = std::move(cb)]() {
    FileState& st = state_for(s->file);
    Bytes out;
    out.reserve(static_cast<std::size_t>(len));
    bool missing = false;
    for (std::int64_t pos = offset; pos < offset + len;) {
      const std::int64_t blk = pos / costs_.block_size;
      const std::int64_t boff = pos % costs_.block_size;
      const std::int64_t n =
          std::min(costs_.block_size - boff, offset + len - pos);
      auto bit = st.blocks.find(blk);
      if (bit == st.blocks.end()) {
        missing = true;  // evicted under memory pressure mid-operation
        break;
      }
      append_block_range(out, bit->second.data, boff, n);
      pos += n;
    }
    if (missing) {
      // Rare fallback: bypass the cache for this read.
      remote_read(s->file, offset, len, std::move(cb));
      return;
    }
    cb(std::move(out));
  };

  if (runs.empty()) {
    // Pure cache hit: costs only local CPU, charged by the syscall layer.
    sim_.after(Time::zero(), std::move(assemble));
    return;
  }

  // Fetch runs sequentially, then assemble.
  util::async_loop([this, s, runs = std::move(runs),
                    assemble = std::move(assemble)](std::size_t i, auto next) {
    if (i >= runs.size()) return assemble();
    fetch_blocks(s->file, runs[i].first, runs[i].second,
                 [next](Status) { next(); });
  });
}

void FsClient::fetch_blocks(FileId id, std::int64_t first, std::int64_t last,
                            std::function<void(util::Status)> fn) {
  // Fetch in <=16 KB chunks.
  const std::int64_t blocks_per_rpc = kMaxTransferUnit / costs_.block_size;
  const std::int64_t chunk_last = std::min(last, first + blocks_per_rpc - 1);

  auto body = std::make_shared<ReadReq>();
  body->id = id;
  body->offset = first * costs_.block_size;
  body->len = (chunk_last - first + 1) * costs_.block_size;
  body->gen = gen_for(id);
  c_remote_reads_->inc();
  rpc_.call(
      id.server, ServiceId::kFsIo, static_cast<int>(IoOp::kRead), body,
      [this, id, first, chunk_last, last, fn = std::move(fn)](
          util::Result<Reply> r) mutable {
        if (!r.is_ok()) return fn(r.status());
        if (!r->status.is_ok()) return fn(r->status);
        auto rep = rpc::body_cast<ReadRep>(r->body);
        SPRITE_CHECK(rep != nullptr);
        FileState& st = state_for(id);
        // Slice the returned range into cache blocks.
        std::size_t pos = 0;
        for (std::int64_t blk = first;
             blk <= chunk_last && pos < rep->data.size(); ++blk) {
          const std::size_t n =
              std::min(static_cast<std::size_t>(costs_.block_size),
                       rep->data.size() - pos);
          CacheBlock cblk;
          cblk.data.assign(
              rep->data.begin() + static_cast<std::ptrdiff_t>(pos),
              rep->data.begin() + static_cast<std::ptrdiff_t>(pos + n));
          st.blocks[blk] = std::move(cblk);
          touch_lru(id, blk);
          pos += n;
        }
        enforce_capacity();
        if (chunk_last < last) {
          fetch_blocks(id, chunk_last + 1, last, std::move(fn));
        } else {
          fn(Status::ok());
        }
      });
}

void FsClient::write(const StreamPtr& s, Bytes data, WriteCb cb) {
  if (s->type == FileType::kPseudoDevice)
    return cb(Status(Err::kNotSupported, "use pdev_call"));
  if (!s->flags.write) return cb(Status(Err::kBadF, "not open for writing"));
  if (s->type == FileType::kPipe)
    return pipe_write(s, std::move(data), std::move(cb));

  if (s->server_offset) {
    auto body = std::make_shared<GroupIoReq>();
    body->id = s->file;
    body->group = s->group;
    body->data = std::move(data);
    body->gen = s->gen;
    rpc_.call(s->file.server, ServiceId::kFsIo,
              static_cast<int>(IoOp::kGroupWrite), body,
              [cb = std::move(cb)](util::Result<Reply> r) {
                if (!r.is_ok()) return cb(r.status());
                if (!r->status.is_ok()) return cb(r->status);
                auto rep = rpc::body_cast<GroupIoRep>(r->body);
                SPRITE_CHECK(rep != nullptr);
                cb(rep->written);
              });
    return;
  }

  const std::int64_t offset = s->offset;
  auto done = [s, cb = std::move(cb)](util::Result<std::int64_t> r) {
    if (r.is_ok()) {
      s->offset += *r;
      s->size_hint = std::max(s->size_hint, s->offset);
    }
    cb(std::move(r));
  };

  auto payload = std::make_shared<Bytes>(std::move(data));
  auto attempt = [this, s, offset, payload](WriteCb k) {
    const auto it = files_.find(s->file);
    const bool use_cache = s->cacheable && !s->flags.no_cache &&
                           it != files_.end() && it->second.cacheable;
    if (use_cache) {
      cached_write(s, offset, *payload, std::move(k));
    } else {
      remote_write(s->file, offset, *payload, std::move(k));
    }
  };
  retry_once_on_stale<std::int64_t>(s, std::move(attempt), std::move(done));
}

void FsClient::cached_write(const StreamPtr& s, std::int64_t offset,
                            Bytes data, WriteCb cb) {
  FileState& st = state_for(s->file);
  const auto len = static_cast<std::int64_t>(data.size());
  if (len == 0) return cb(std::int64_t{0});

  const std::int64_t first = offset / costs_.block_size;
  const std::int64_t last = (offset + len - 1) / costs_.block_size;

  // Partially-covered blocks that already exist at the server need a
  // read-modify-write: fetch them before applying the write.
  std::vector<std::pair<std::int64_t, std::int64_t>> fetches;
  auto needs_fetch = [&](std::int64_t blk, bool partial) {
    return partial && !st.blocks.count(blk) &&
           blk * costs_.block_size < st.size;
  };
  if (needs_fetch(first, offset % costs_.block_size != 0))
    fetches.emplace_back(first, first);
  if (last != first && needs_fetch(last, (offset + len) % costs_.block_size != 0))
    fetches.emplace_back(last, last);

  auto shared_cb = std::make_shared<WriteCb>(std::move(cb));
  auto apply = [this, s, offset, data = std::move(data), shared_cb]() {
    WriteCb cb = std::move(*shared_cb);
    FileState& st = state_for(s->file);
    const auto len = static_cast<std::int64_t>(data.size());
    std::int64_t pos = offset;
    std::size_t src = 0;
    while (src < data.size()) {
      const std::int64_t blk = pos / costs_.block_size;
      const std::int64_t boff = pos % costs_.block_size;
      const std::int64_t n = std::min<std::int64_t>(
          costs_.block_size - boff,
          static_cast<std::int64_t>(data.size() - src));
      CacheBlock& cblk = st.blocks[blk];
      if (static_cast<std::int64_t>(cblk.data.size()) < boff + n)
        cblk.data.resize(static_cast<std::size_t>(boff + n), 0);
      std::copy(data.begin() + static_cast<std::ptrdiff_t>(src),
                data.begin() + static_cast<std::ptrdiff_t>(src + n),
                cblk.data.begin() + static_cast<std::ptrdiff_t>(boff));
      cblk.dirty = true;
      touch_lru(s->file, blk);
      pos += n;
      src += static_cast<std::size_t>(n);
    }
    st.size = std::max(st.size, offset + len);
    enforce_capacity();
    schedule_writeback(s->file);
    cb(len);
  };

  if (fetches.empty()) {
    sim_.after(Time::zero(), std::move(apply));
    return;
  }
  util::async_loop([this, s, fetches = std::move(fetches), shared_cb,
                    apply = std::move(apply)](std::size_t i, auto next) {
    if (i >= fetches.size()) return apply();
    fetch_blocks(s->file, fetches[i].first, fetches[i].second,
                 [shared_cb, next](Status st) {
                   // A failed read-modify-write fetch must fail the write:
                   // applying over a zero-filled block and flushing later
                   // would overwrite the server's real bytes with zeros.
                   // The caller's retry wrapper recovers (reopen/failover)
                   // and the retried attempt re-fetches.
                   if (!st.is_ok()) return (*shared_cb)(st);
                   next();
                 });
  });
}

void FsClient::remote_read(FileId id, std::int64_t offset, std::int64_t len,
                           ReadCb cb) {
  struct State {
    Bytes out;
    std::int64_t pos;
    std::int64_t remaining;
  };
  auto st = std::make_shared<State>(State{{}, offset, len});
  util::async_loop([this, id, st, cb = std::move(cb)](std::size_t,
                                                      auto next) {
    if (st->remaining <= 0) return cb(std::move(st->out));
    const std::int64_t n = std::min(st->remaining, kMaxTransferUnit);
    auto body = std::make_shared<ReadReq>();
    body->id = id;
    body->offset = st->pos;
    body->len = n;
    body->gen = gen_for(id);
    c_remote_reads_->inc();
    rpc_.call(id.server, ServiceId::kFsIo, static_cast<int>(IoOp::kRead),
              body, [st, next, n, cb](util::Result<Reply> r) {
                if (!r.is_ok()) return cb(r.status());
                if (!r->status.is_ok()) return cb(r->status);
                auto rep = rpc::body_cast<ReadRep>(r->body);
                SPRITE_CHECK(rep != nullptr);
                st->out.insert(st->out.end(), rep->data.begin(),
                               rep->data.end());
                st->pos += static_cast<std::int64_t>(rep->data.size());
                st->remaining -= n;
                if (static_cast<std::int64_t>(rep->data.size()) < n)
                  st->remaining = 0;  // EOF
                next();
              });
  });
}

void FsClient::remote_write(FileId id, std::int64_t offset, Bytes data,
                            WriteCb cb) {
  struct State {
    Bytes data;
    std::int64_t pos;
    std::size_t written = 0;
  };
  auto st = std::make_shared<State>(State{std::move(data), offset, 0});
  util::async_loop([this, id, st, cb = std::move(cb)](std::size_t,
                                                      auto next) {
    if (st->written >= st->data.size()) {
      auto fit = files_.find(id);
      if (fit != files_.end())
        fit->second.size = std::max(fit->second.size, st->pos);
      return cb(static_cast<std::int64_t>(st->written));
    }
    const std::size_t n =
        std::min(st->data.size() - st->written,
                 static_cast<std::size_t>(kMaxTransferUnit));
    auto body = std::make_shared<WriteReq>();
    body->id = id;
    body->offset = st->pos;
    body->data.assign(
        st->data.begin() + static_cast<std::ptrdiff_t>(st->written),
        st->data.begin() + static_cast<std::ptrdiff_t>(st->written + n));
    body->gen = gen_for(id);
    c_remote_writes_->inc();
    rpc_.call(id.server, ServiceId::kFsIo, static_cast<int>(IoOp::kWrite),
              body, [st, next, n, cb](util::Result<Reply> r) {
                if (!r.is_ok()) return cb(r.status());
                if (!r->status.is_ok()) return cb(r->status);
                st->written += n;
                st->pos += static_cast<std::int64_t>(n);
                next();
              });
  });
}

// ---------------------------------------------------------------------------
// Delayed writes / flushing
// ---------------------------------------------------------------------------

void FsClient::schedule_writeback(FileId id) {
  FileState& st = state_for(id);
  if (st.writeback_scheduled) return;
  st.writeback_scheduled = true;
  sim_.after(costs_.fs_writeback_delay, "fs_writeback", [this, id] {
    auto it = files_.find(id);
    if (it == files_.end()) return;
    it->second.writeback_scheduled = false;
    flush_file(id, [](Status) {});
  });
}

void FsClient::flush_file(FileId id, StatusCb cb) {
  auto it = files_.find(id);
  if (it == files_.end()) {
    sim_.after(Time::zero(), [cb = std::move(cb)] { cb(Status::ok()); });
    return;
  }
  FileState& st = it->second;

  // Stale home: the prefix table has failed away from this file's server
  // since these blocks were dirtied (a promotion the client learned about
  // between the write and the flush). Writing at the old home would only
  // time out — reopen by path at the current primary, rehome the dirty
  // blocks, and flush them there instead.
  if (!st.path.empty()) {
    bool any_dirty = false;
    for (const auto& [blk, cblk] : st.blocks)
      if (cblk.dirty) {
        any_dirty = true;
        break;
      }
    auto rt = route(st.path);
    if (any_dirty && rt.is_ok() && *rt != id.server) {
      OpenFlags flags;
      flags.read = true;
      flags.write = true;
      open(st.path, flags,
           [this, id, cb = std::move(cb)](util::Result<StreamPtr> r) mutable {
             if (!r.is_ok()) return cb(r.status());
             StreamPtr s = *r;
             const FileId new_id = s->file;
             if (new_id != id) {
               rehome_file(id, new_id);
               note_failover_done(id.server);
             }
             flush_file(new_id, [this, s, cb = std::move(cb)](Status st) {
               close(s, [cb = std::move(cb), st](Status) { cb(st); });
             });
           });
      return;
    }
  }

  // Coalesce dirty blocks into contiguous runs.
  struct Run {
    std::int64_t first_blk;
    Bytes data;
  };
  auto runs = std::make_shared<std::vector<Run>>();
  for (auto& [blk, cblk] : st.blocks) {
    if (!cblk.dirty) continue;
    cblk.dirty = false;  // the write below carries the data
    c_writeback_bytes_->inc(static_cast<std::int64_t>(cblk.data.size()));
    const bool contiguous =
        !runs->empty() &&
        runs->back().first_blk +
                static_cast<std::int64_t>((runs->back().data.size() +
                                           costs_.block_size - 1) /
                                          costs_.block_size) ==
            blk &&
        static_cast<std::int64_t>(runs->back().data.size()) +
                static_cast<std::int64_t>(cblk.data.size()) <=
            kMaxTransferUnit &&
        runs->back().data.size() %
                static_cast<std::size_t>(costs_.block_size) ==
            0;
    if (contiguous) {
      runs->back().data.insert(runs->back().data.end(), cblk.data.begin(),
                               cblk.data.end());
    } else {
      runs->push_back(Run{blk, cblk.data});
    }
  }
  if (runs->empty()) {
    sim_.after(Time::zero(), [cb = std::move(cb)] { cb(Status::ok()); });
    return;
  }

  util::async_loop([this, id, runs, cb = std::move(cb)](std::size_t i,
                                                       auto next) {
    if (i >= runs->size()) {
      auto fit = files_.find(id);
      if (fit != files_.end()) {
        fit->second.flush_failures = 0;
        fit->second.flush_failing = false;
      }
      return cb(Status::ok());
    }
    auto body = std::make_shared<WriteReq>();
    body->id = id;
    body->offset = (*runs)[i].first_blk * costs_.block_size;
    body->data = (*runs)[i].data;
    body->gen = gen_for(id);
    c_remote_writes_->inc();
    rpc_.call(id.server, ServiceId::kFsIo, static_cast<int>(IoOp::kWrite),
              body,
              [this, id, runs, next, i, cb](util::Result<Reply> r) {
                const Status st = r.is_ok() ? r->status : r.status();
                if (!st.is_ok()) {
                  // The dirty flags were cleared up front, so without
                  // accounting this run (and every one behind it) would be
                  // dropped silently — the delayed-write data-loss window.
                  for (std::size_t j = i; j < runs->size(); ++j) {
                    const auto& run = (*runs)[j];
                    const auto nblocks = static_cast<std::int64_t>(
                        (static_cast<std::int64_t>(run.data.size()) +
                         costs_.block_size - 1) /
                        costs_.block_size);
                    // While the write was in flight these blocks looked
                    // clean, so the LRU may have evicted them; the run body
                    // holds the only copy. Put the missing ones back so the
                    // retry has something to re-arm.
                    auto fit = files_.find(id);
                    if (fit != files_.end()) {
                      for (std::int64_t b = 0; b < nblocks; ++b) {
                        const std::int64_t blk = run.first_blk + b;
                        if (fit->second.blocks.count(blk) != 0) continue;
                        const auto off =
                            static_cast<std::size_t>(b * costs_.block_size);
                        if (off >= run.data.size()) continue;
                        const auto end = std::min(
                            run.data.size(),
                            off + static_cast<std::size_t>(costs_.block_size));
                        CacheBlock cblk;
                        cblk.data.assign(run.data.begin() + off,
                                         run.data.begin() + end);
                        fit->second.blocks.emplace(blk, std::move(cblk));
                        touch_lru(id, blk);
                      }
                    }
                    flush_run_failed(id, run.first_blk, nblocks, st);
                  }
                  return cb(st);
                }
                next();
              });
  });
}

void FsClient::flush_run_failed(FileId id, std::int64_t first_blk,
                                std::int64_t nblocks, util::Status why) {
  auto it = files_.find(id);
  if (it != files_.end()) {
    FileState& st = it->second;
    ++st.flush_failures;
    if (!st.flush_failing) {
      st.flush_failing = true;
      st.first_flush_fail = sim_.now();
    }
    bool failover_possible = false;
    if (!st.path.empty()) {
      auto rt = route(st.path);
      failover_possible = rt.is_ok() && *rt != id.server;
      // The route still points at the failed server, but the partition has
      // a backup: the down verdict (and the promotion it triggers) is most
      // likely still in flight. The writeback delay outlasts the verdict
      // window, so parking the blocks for one more cycle lets the stale-home
      // divert in flush_file carry them to the promoted replica.
      if (!failover_possible) failover_possible = path_replicated(st.path);
    }
    // Give-up rule: without a backup, three strikes (there is nowhere else
    // for the data to go). With one, park until the failover machinery has
    // had an honest chance — interest registration, suspicion, verdict, and
    // one post-promotion writeback cycle all have to fit inside the grace
    // window, however many times the application retried its fsync.
    const sim::Time grace = costs_.fs_writeback_delay * 2.0 +
                            (costs_.recov_echo_interval +
                             costs_.recov_down_after) * 2.0;
    const bool keep_trying =
        failover_possible ? sim_.now() - st.first_flush_fail <= grace
                          : st.flush_failures <= 3;
    // The data is still in the cache. While there is a plausible way for it
    // to land — an open stream whose next op refreshes the stale handle, or
    // a promoted replica a rehome can carry it to — re-arm the dirty bits
    // and try again instead of declaring it lost.
    if ((st.open_streams > 0 || failover_possible) && keep_trying) {
      std::int64_t rearmed = 0;
      for (std::int64_t blk = first_blk; blk < first_blk + nblocks; ++blk) {
        auto bit = st.blocks.find(blk);
        if (bit == st.blocks.end()) continue;
        bit->second.dirty = true;
        ++rearmed;
      }
      if (rearmed > 0) {
        schedule_writeback(id);
        return;
      }
    }
  }
  c_dirty_lost_->inc(nblocks);
  LOG_INFO("fs", "host%d lost %lld dirty blocks for ino%lld@host%d (%s)",
           rpc_.host(), static_cast<long long>(nblocks),
           static_cast<long long>(id.ino), id.server, why.message().c_str());
  sim_.trace().flight_note("fs.cache", "dirty_lost", rpc_.host(), -1,
                           id.server, nblocks);
}

void FsClient::fsync(const StreamPtr& s, StatusCb cb) {
  flush_file(s->file, std::move(cb));
}

void FsClient::ftruncate(const StreamPtr& s, std::int64_t size, StatusCb cb) {
  if (s->type != FileType::kRegular)
    return cb(Status(Err::kInval, "ftruncate on non-regular stream"));
  if (!s->flags.write)
    return cb(Status(Err::kBadF, "not open for writing"));
  auto body = std::make_shared<TruncateReq>();
  body->id = s->file;
  body->size = size;
  body->gen = s->gen;
  rpc_.call(s->file.server, ServiceId::kFsIo,
            static_cast<int>(IoOp::kTruncate), body,
            [this, s, size, cb = std::move(cb)](util::Result<Reply> r) {
              if (!r.is_ok()) return cb(r.status());
              if (!r->status.is_ok()) return cb(r->status);
              auto it = files_.find(s->file);
              if (it != files_.end()) {
                it->second.size = std::min(it->second.size, size);
                // Drop cached blocks past the new end (and the partial one
                // straddling it — simplest correct choice).
                const std::int64_t keep = size / costs_.block_size;
                for (auto bit = it->second.blocks.begin();
                     bit != it->second.blocks.end();) {
                  if (bit->first >= keep) {
                    auto lit = lru_index_.find({s->file, bit->first});
                    if (lit != lru_index_.end()) {
                      lru_.erase(lit->second);
                      lru_index_.erase(lit);
                    }
                    bit = it->second.blocks.erase(bit);
                  } else {
                    ++bit;
                  }
                }
              }
              s->size_hint = std::min(s->size_hint, size);
              cb(Status::ok());
            });
}

std::int64_t FsClient::dirty_bytes(FileId id) const {
  auto it = files_.find(id);
  if (it == files_.end()) return 0;
  std::int64_t total = 0;
  for (const auto& [blk, cblk] : it->second.blocks)
    if (cblk.dirty) total += static_cast<std::int64_t>(cblk.data.size());
  return total;
}

std::int64_t FsClient::total_dirty_bytes() const {
  std::int64_t total = 0;
  for (const auto& [id, st] : files_)
    for (const auto& [blk, cblk] : st.blocks)
      if (cblk.dirty) total += static_cast<std::int64_t>(cblk.data.size());
  return total;
}

// ---------------------------------------------------------------------------
// Consistency callbacks (server -> client)
// ---------------------------------------------------------------------------

void FsClient::handle_callback(const Request& req,
                               std::function<void(Reply)> respond) {
  auto body = rpc::body_cast<CallbackReq>(req.body);
  SPRITE_CHECK(body != nullptr);
  switch (static_cast<CallbackOp>(req.op)) {
    case CallbackOp::kRecallDirty: {
      c_recalls_->inc();
      flush_file(body->id, [respond = std::move(respond)](Status s) {
        respond(Reply{s, nullptr});
      });
      return;
    }
    case CallbackOp::kPipeReady: {
      auto it = pipe_parked_.find(body->id);
      if (it != pipe_parked_.end()) {
        auto retries = std::move(it->second);
        pipe_parked_.erase(it);
        for (auto& retry : retries) retry();
      }
      respond(Reply{Status::ok(), nullptr});
      return;
    }
    case CallbackOp::kDisableCache: {
      c_cache_disables_->inc();
      const FileId id = body->id;
      flush_file(id, [this, id, respond = std::move(respond)](Status s) {
        auto it = files_.find(id);
        if (it != files_.end()) {
          it->second.cacheable = false;
          for (auto bit = it->second.blocks.begin();
               bit != it->second.blocks.end();) {
            auto lit = lru_index_.find({id, bit->first});
            if (lit != lru_index_.end()) {
              lru_.erase(lit->second);
              lru_index_.erase(lit);
            }
            bit = it->second.blocks.erase(bit);
          }
        }
        respond(Reply{s, nullptr});
      });
      return;
    }
  }
  respond(Reply{Status(Err::kNotSupported, "bad callback op"), nullptr});
}

// ---------------------------------------------------------------------------
// Pipes
// ---------------------------------------------------------------------------

void FsClient::create_pipe(PipeCb cb) {
  auto server = route("/");
  if (!server.is_ok()) return cb(server.status());
  rpc_.call(*server, ServiceId::kFsName,
            static_cast<int>(NameOp::kCreatePipe), nullptr,
            [this, cb = std::move(cb)](util::Result<Reply> r) {
              if (!r.is_ok()) return cb(r.status());
              if (!r->status.is_ok()) return cb(r->status);
              auto rep = rpc::body_cast<CreatePipeRep>(r->body);
              SPRITE_CHECK(rep != nullptr);
              auto make_end = [this, rep](bool read_end) {
                auto s = std::make_shared<Stream>();
                s->group = new_group_id();
                s->file = rep->id;
                s->type = FileType::kPipe;
                s->flags = read_end ? OpenFlags::read_only()
                                    : OpenFlags::write_only();
                s->cacheable = false;
                s->gen = rep->generation;
                return s;
              };
              cb(std::make_pair(make_end(true), make_end(false)));
            });
}

void FsClient::pipe_read(const StreamPtr& s, std::int64_t len, ReadCb cb) {
  auto body = std::make_shared<PipeIoReq>();
  body->id = s->file;
  body->len = len;
  body->gen = s->gen;
  rpc_.call(
      s->file.server, ServiceId::kFsIo, static_cast<int>(IoOp::kPipeRead),
      body, [this, s, len, cb = std::move(cb)](util::Result<Reply> r) mutable {
        if (!r.is_ok()) return cb(r.status());
        if (r->status.err() == Err::kWouldBlock) {
          // Park until the server's kPipeReady wakeup, then retry.
          pipe_parked_[s->file].push_back(
              [this, s, len, cb = std::move(cb)]() mutable {
                pipe_read(s, len, std::move(cb));
              });
          return;
        }
        if (!r->status.is_ok()) return cb(r->status);
        auto rep = rpc::body_cast<PipeIoRep>(r->body);
        SPRITE_CHECK(rep != nullptr);
        cb(std::move(rep->data));  // empty + eof => end of file
      });
}

void FsClient::pipe_write(const StreamPtr& s, Bytes data, WriteCb cb) {
  auto body = std::make_shared<PipeIoReq>();
  body->id = s->file;
  body->data = std::move(data);
  body->gen = s->gen;
  rpc_.call(
      s->file.server, ServiceId::kFsIo, static_cast<int>(IoOp::kPipeWrite),
      body, [this, s, body, cb = std::move(cb)](util::Result<Reply> r) mutable {
        if (!r.is_ok()) return cb(r.status());
        if (r->status.err() == Err::kWouldBlock) {
          pipe_parked_[s->file].push_back(
              [this, s, body, cb = std::move(cb)]() mutable {
                pipe_write(s, body->data, std::move(cb));
              });
          return;
        }
        if (!r->status.is_ok()) return cb(r->status);
        auto rep = rpc::body_cast<PipeIoRep>(r->body);
        SPRITE_CHECK(rep != nullptr);
        cb(rep->written);
      });
}

// ---------------------------------------------------------------------------
// Pseudo-devices
// ---------------------------------------------------------------------------

void FsClient::pdev_call(const StreamPtr& s, Bytes request, PdevCb cb) {
  if (s->type != FileType::kPseudoDevice)
    return cb(Status(Err::kInval, "not a pseudo-device"));
  auto body = std::make_shared<PdevReq>();
  body->tag = s->pdev_tag;
  body->data = std::move(request);
  rpc_.call(s->pdev_host, ServiceId::kPdev, 0, body,
            [cb = std::move(cb)](util::Result<Reply> r) {
              if (!r.is_ok()) return cb(r.status());
              if (!r->status.is_ok()) return cb(r->status);
              auto rep = rpc::body_cast<PdevRep>(r->body);
              SPRITE_CHECK(rep != nullptr);
              cb(rep->data);
            });
}

// ---------------------------------------------------------------------------
// Migration support
// ---------------------------------------------------------------------------

void FsClient::export_stream(const StreamPtr& s, HostId dst,
                             bool shared_on_source, ExportCb cb) {
  auto finish = [this, s, dst, shared_on_source, cb = std::move(cb)]() {
    if (s->type == FileType::kPseudoDevice) {
      // Pseudo-device streams carry no cache or server open state; package
      // them directly.
      ExportedStream e;
      e.group = s->group;
      e.file = s->file;
      e.type = s->type;
      e.flags = s->flags;
      e.pdev_host = s->pdev_host;
      e.pdev_tag = s->pdev_tag;
      e.cacheable = false;
      e.path = s->path;
      e.gen = s->gen;
      sim_.after(Time::zero(), [cb = std::move(cb), e] { cb(e); });
      return;
    }
    auto body = std::make_shared<MigrateStreamReq>();
    body->id = s->file;
    body->flags = s->flags;
    body->from = rpc_.host();
    body->to = dst;
    body->retain_source = shared_on_source;
    body->gen = s->gen;
    rpc_.call(s->file.server, ServiceId::kFsIo,
              static_cast<int>(IoOp::kMigrateStream), body,
              [this, s, cb = std::move(cb)](util::Result<Reply> r) {
                if (!r.is_ok()) return cb(r.status());
                if (!r->status.is_ok()) return cb(r->status);
                auto rep = rpc::body_cast<MigrateStreamRep>(r->body);
                SPRITE_CHECK(rep != nullptr);

                ExportedStream e;
                e.group = s->group;
                e.file = s->file;
                e.type = s->type;
                e.flags = s->flags;
                e.offset = s->offset;
                e.server_offset = s->server_offset;
                e.cacheable = rep->cacheable;
                e.version = rep->version;
                e.size = rep->size;
                e.path = s->path;
                e.gen = rep->generation;

                // The stream leaves this host.
                auto it = files_.find(s->file);
                if (it != files_.end() && it->second.open_streams > 0)
                  --it->second.open_streams;
                cb(e);
              });
  };

  if (s->type == FileType::kPseudoDevice || s->type == FileType::kPipe) {
    // No cache to flush and no byte offsets: re-attribute at the server
    // directly (pdevs skip even that; see finish()).
    finish();
    return;
  }

  // Dirty data must reach the server before the destination can read it.
  flush_file(s->file, [this, s, shared_on_source,
                       finish = std::move(finish)](Status) mutable {
    if (shared_on_source && !s->server_offset) {
      // The access position is about to be shared across hosts: promote it
      // to the I/O server (shadow stream).
      auto body = std::make_shared<ShareOffsetReq>();
      body->id = s->file;
      body->group = s->group;
      body->offset = s->offset;
      body->gen = s->gen;
      rpc_.call(s->file.server, ServiceId::kFsIo,
                static_cast<int>(IoOp::kShareOffset), body,
                [s, finish = std::move(finish)](util::Result<Reply> r) {
                  if (r.is_ok() && r->status.is_ok()) s->server_offset = true;
                  finish();
                });
      return;
    }
    finish();
  });
}

StreamPtr FsClient::import_stream(const ExportedStream& e) {
  auto s = std::make_shared<Stream>();
  s->group = e.group;
  s->file = e.file;
  s->type = e.type;
  s->flags = e.flags;
  s->offset = e.offset;
  s->server_offset = e.server_offset;
  s->cacheable = e.cacheable;
  s->size_hint = e.size;
  s->path = e.path;
  s->gen = e.gen;
  s->pdev_host = e.pdev_host;
  s->pdev_tag = e.pdev_tag;
  if (e.type == FileType::kRegular) {
    FileState& st = state_for(e.file);
    if (st.version != e.version) {
      st.blocks.clear();
      st.version = e.version;
    }
    st.cacheable = e.cacheable;
    st.size = std::max(st.size, e.size);
    st.gen = e.gen;
    if (!e.path.empty()) st.path = e.path;
    ++st.open_streams;
  }
  return s;
}

// ---------------------------------------------------------------------------
// Crash support / reopen-recovery
// ---------------------------------------------------------------------------

void FsClient::recover_stale(const StreamPtr& s, StatusCb cb) {
  if (recoverable_by_path(*s)) {
    c_stale_reopens_->inc();
    sim_.trace().flight_note("fs.reopen", "stale", rpc_.host(), -1,
                             s->file.server, s->file.ino);
    if (trace::Registry& tr = sim_.trace(); tr.tracing())
      tr.instant("fs", "stale reopen", rpc_.host(), -1, {{"path", s->path}});
  }
  reopen_by_path(s, std::move(cb));
}

void FsClient::reopen_by_path(const StreamPtr& s, StatusCb cb) {
  if (!recoverable_by_path(*s)) {
    // Pipes and pdevs are volatile kernel objects — the crash destroyed
    // them. A shadow (server-managed) offset was likewise memory-only; its
    // position is unrecoverable, so pretending to reopen would silently
    // reposition the stream.
    sim_.after(Time::zero(), [cb = std::move(cb)] {
      cb(Status(Err::kStale, "stream is unrecoverable after server crash"));
    });
    return;
  }
  // Dirty blocks cached here survive and stay dirty: they are flushed under
  // the new generation once the reopen installs it.
  auto it = files_.find(s->file);
  if (it != files_.end() && it->second.open_streams > 0)
    --it->second.open_streams;  // the reopen below re-registers this stream
  OpenFlags flags = s->flags;
  flags.truncate = false;  // never destroy data during recovery
  flags.create = false;
  const FileId old_id = s->file;
  open(s->path, flags,
       [this, s, old_id, cb = std::move(cb)](util::Result<StreamPtr> r) {
         if (!r.is_ok()) return cb(r.status());
         const StreamPtr& fresh = *r;
         s->file = fresh->file;
         s->gen = fresh->gen;
         s->cacheable = fresh->cacheable;
         s->size_hint = std::max(s->size_hint, fresh->size_hint);
         if (fresh->file != old_id) {
           // The stream came back on a different replica (or a different
           // inode): carry the dirty delayed writes over to the new handle.
           c_failover_reopens_->inc();
           rehome_file(old_id, fresh->file);
           note_failover_done(old_id.server);
         }
         cb(Status::ok());
       });
}

void FsClient::rehome_file(FileId old_id, FileId new_id) {
  if (old_id == new_id) return;
  auto oit = files_.find(old_id);
  if (oit == files_.end()) return;
  FileState& ns = files_[new_id];  // map insertion keeps oit valid
  FileState& os = oit->second;
  std::int64_t moved = 0;
  for (auto it = os.blocks.begin(); it != os.blocks.end();) {
    drop_lru_entry(old_id, it->first);
    if (it->second.dirty) {
      // Dirty data was written (and acked to the writer) before the server
      // died; the promoted replica never saw it. Flush it there.
      ns.blocks[it->first] = std::move(it->second);
      touch_lru(new_id, it->first);
      ++moved;
    }
    // Clean blocks are dropped: they were validated against the dead
    // server's version and are re-fetched on demand.
    it = os.blocks.erase(it);
  }
  if (ns.path.empty()) ns.path = os.path;
  ns.size = std::max(ns.size, os.size);
  os.flush_failures = 0;
  if (moved > 0) {
    c_rehomed_->inc(moved);
    sim_.trace().flight_note("fs.failover", "rehome", rpc_.host(), -1,
                             old_id.server, moved);
    schedule_writeback(new_id);
  }
}

void FsClient::open_recorded(const std::string& path, OpenFlags flags,
                             std::int64_t offset, OpenCb cb) {
  flags.truncate = false;  // never destroy data during recovery
  flags.create = false;
  open(path, flags, [offset, cb = std::move(cb)](util::Result<StreamPtr> r) {
    if (!r.is_ok()) return cb(std::move(r));
    (*r)->offset = offset;
    cb(std::move(r));
  });
}

void FsClient::crash_reset() {
  // The classic cost of 30-second delayed writes: dirty blocks that never
  // reached a server die with this host. Account them before clearing.
  std::int64_t lost = 0;
  for (const auto& [id, st] : files_)
    for (const auto& [blk, cblk] : st.blocks)
      if (cblk.dirty) ++lost;
  if (lost > 0) {
    c_dirty_lost_->inc(lost);
    sim_.trace().flight_note("fs.cache", "dirty_lost", rpc_.host(), -1,
                             rpc_.host(), lost);
  }
  files_.clear();
  lru_.clear();
  lru_index_.clear();
  name_cache_.clear();
  pipe_parked_.clear();
  failover_started_.clear();
  // prefixes_ survive: they are boot-time configuration, re-read at reboot.
  // Active replica indices survive with them — the table reflects the
  // cluster's current primaries, not this host's uptime.
}

void FsClient::peer_crashed(HostId peer) {
  // Fail the prefix table over first so everything below routes to the
  // surviving replica.
  flip_route_away(peer);
  // Parked pipe retries against the dead server would hang forever (the
  // kPipeReady wakeup will never come). Re-issue them now: each retry runs
  // into the down host or its post-reboot generation and fails with
  // kTimedOut / kStale, unblocking the parked process with an error.
  for (auto it = pipe_parked_.begin(); it != pipe_parked_.end();) {
    if (it->first.server != peer) {
      ++it;
      continue;
    }
    auto retries = std::move(it->second);
    it = pipe_parked_.erase(it);
    for (auto& retry : retries) retry();
  }
  // Dirty delayed writes homed on the dead server: if a replica took over,
  // reopen each file by path there and carry the data across. Files without
  // a surviving replica keep their blocks and retry against the reboot
  // (flush_run_failed accounts them if that never lands).
  std::vector<std::pair<FileId, std::string>> to_rehome;
  for (const auto& [id, st] : files_) {
    if (id.server != peer || st.path.empty()) continue;
    bool dirty = false;
    for (const auto& [blk, cblk] : st.blocks)
      if (cblk.dirty) {
        dirty = true;
        break;
      }
    if (!dirty) continue;
    auto rt = route(st.path);
    if (rt.is_ok() && *rt != peer) to_rehome.emplace_back(id, st.path);
  }
  for (const auto& [id, path] : to_rehome) {
    OpenFlags flags;
    flags.read = true;
    flags.write = true;
    open(path, flags, [this, id](util::Result<StreamPtr> r) {
      if (!r.is_ok()) return;  // flush accounting catches the loss
      const StreamPtr s = *r;
      rehome_file(id, s->file);
      note_failover_done(id.server);
      close(s, [](Status) {});
    });
  }
}

void FsClient::peer_suspected(HostId peer) {
  // Advisory hedge: push this server's dirty blocks out now instead of
  // sitting out the remainder of the 30-second delay. If the suspicion is
  // false we flushed early (harmless); if it is true, everything that lands
  // before the crash is data that would otherwise have died in our cache.
  for (const auto& [id, st] : files_) {
    if (id.server != peer) continue;
    bool dirty = false;
    for (const auto& [blk, cblk] : st.blocks)
      if (cblk.dirty) {
        dirty = true;
        break;
      }
    if (!dirty) continue;
    c_suspect_flush_->inc();
    sim_.trace().flight_note("fs.cache", "suspect_flush", rpc_.host(), -1,
                             peer, id.ino);
    flush_file(id, [](Status) {});
  }
}

void FsClient::collect_peer_interest(std::vector<sim::HostId>& out) const {
  for (const auto& [id, v] : pipe_parked_)
    if (!v.empty()) out.push_back(id.server);
  // Servers holding our open streams or owed our dirty delayed writes are
  // live dependencies: their death must be detected for reopen-failover and
  // the suspect-flush hedge to fire.
  for (const auto& [id, st] : files_) {
    // flush_failing covers the in-flight window where a flush has cleared
    // the dirty bits but not yet landed: dropping the server from the
    // interest set there would reset the monitor's suspicion clock every
    // retry and the down verdict would never arrive.
    if (st.open_streams > 0 || st.flush_failing) {
      out.push_back(id.server);
      continue;
    }
    for (const auto& [blk, cblk] : st.blocks)
      if (cblk.dirty) {
        out.push_back(id.server);
        break;
      }
  }
}

std::size_t FsClient::parked_pipe_retries() const {
  std::size_t n = 0;
  for (const auto& [id, v] : pipe_parked_) n += v.size();
  return n;
}

// ---------------------------------------------------------------------------
// Cache capacity
// ---------------------------------------------------------------------------

void FsClient::touch_lru(FileId id, std::int64_t blk) {
  const auto key = std::make_pair(id, blk);
  auto it = lru_index_.find(key);
  if (it != lru_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(key);
  lru_index_[key] = lru_.begin();
}

void FsClient::drop_lru_entry(FileId id, std::int64_t blk) {
  auto it = lru_index_.find({id, blk});
  if (it == lru_index_.end()) return;
  lru_.erase(it->second);
  lru_index_.erase(it);
}

void FsClient::enforce_capacity() {
  while (static_cast<std::int64_t>(lru_.size()) >
         costs_.fs_client_cache_blocks) {
    const auto [id, blk] = lru_.back();
    lru_.pop_back();
    lru_index_.erase({id, blk});
    auto fit = files_.find(id);
    if (fit == files_.end()) continue;
    auto bit = fit->second.blocks.find(blk);
    if (bit == fit->second.blocks.end()) continue;
    if (bit->second.dirty) {
      // Write the block back before discarding it.
      auto body = std::make_shared<WriteReq>();
      body->id = id;
      body->offset = blk * costs_.block_size;
      body->data = std::move(bit->second.data);
      body->gen = gen_for(id);
      c_remote_writes_->inc();
      rpc_.call(
          id.server, ServiceId::kFsIo, static_cast<int>(IoOp::kWrite), body,
          [this, id, blk, body](util::Result<Reply> r) {
            if (r.is_ok() && r->status.is_ok()) return;
            // The server may be mid-failover: put the block back as dirty
            // and let the flush machinery (reroute, reopen-by-path,
            // three-strikes accounting) decide its fate instead of
            // dropping the data on the first timeout.
            auto fit = files_.find(id);
            if (fit == files_.end() || fit->second.blocks.count(blk) != 0 ||
                body->data.empty()) {
              c_dirty_lost_->inc();
              sim_.trace().flight_note("fs.cache", "dirty_lost", rpc_.host(),
                                       -1, id.server, 1);
              return;
            }
            CacheBlock cblk;
            cblk.data = std::move(body->data);
            fit->second.blocks.emplace(blk, std::move(cblk));
            touch_lru(id, blk);
            // Re-dirties the block and schedules a writeback when a retry
            // can still land; accounts it as lost otherwise.
            flush_run_failed(id, blk, 1, r.is_ok() ? r->status : r.status());
            enforce_capacity();
          });
    }
    fit->second.blocks.erase(bit);
  }
}

}  // namespace sprite::fs
