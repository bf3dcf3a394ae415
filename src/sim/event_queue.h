// Discrete-event queue: the heart of the simulator.
//
// Events fire in (time, insertion-sequence) order, so same-time events run in
// the order they were scheduled — this plus per-component RNG streams makes
// every run bit-for-bit deterministic.
//
// Storage is a pool of slots plus a binary heap of small keys:
//
//   * Each pending event owns one slot: its sequence number, its engine
//     metadata (event type, trace context, recurrence) and its callable,
//     held in place by EventFn. Slots live in fixed-size chunks that never
//     move, so a handler runs where it was stored and no event allocates
//     unless its capture outgrows the inline buffer.
//   * The heap holds trivially copyable (time, seq|slot) keys, 16 bytes each.
//   * A slot carries its event's seq while pending and 0 otherwise. An
//     EventHandle names (slot, seq), so a handle to a fired or cancelled
//     event, whose slot may since hold another event, is simply not pending.
//
// Cancellation frees the slot and destroys the callable at once; the heap
// key stays behind and is discarded when it reaches the front, so size()
// counts cancelled keys not yet dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"
#include "trace/trace.h"
#include "util/assert.h"

namespace sprite::sim {

class EventQueue;

// Handle that can cancel a pending event. Default-constructed handles are
// inert. Cancelling an already-fired or already-cancelled event is a no-op.
// A handle refers into its queue: cancel() and pending() must not be called
// once the owning Simulator is destroyed.
class EventHandle {
 public:
  EventHandle() = default;

  void cancel();
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint64_t seq)
      : queue_(q), slot_(slot), seq_(seq) {}
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

// A type-erased void() callable stored in place. Captures up to
// kInlineBytes live in the inline buffer; larger ones go to the heap. It is
// neither copied nor moved: it lives in a queue slot, which never moves.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 56;

  EventFn() = default;
  ~EventFn() { reset(); }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  // Precondition: empty.
  template <class F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineBytes &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  void operator()() { ops_->call(buf_); }

  // Destroys the callable (and whatever it captured); a no-op when empty.
  void reset() {
    if (const Ops* ops = std::exchange(ops_, nullptr)) ops->destroy(buf_);
  }

 private:
  struct Ops {
    void (*call)(void*);
    void (*destroy)(void*);
  };
  template <class D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*std::launder(static_cast<D*>(p)))(); },
      [](void* p) { std::launder(static_cast<D*>(p))->~D(); }};
  template <class D>
  static constexpr Ops kHeapOps{
      [](void* p) { (**std::launder(static_cast<D**>(p)))(); },
      [](void* p) { delete *std::launder(static_cast<D**>(p)); }};

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  // One slot. `seq` is nonzero exactly while the event is pending; the rest
  // is written by the Simulator at schedule time.
  struct Event {
    std::uint64_t seq = 0;
    std::uint32_t type = 0;  // EngineProfiler event-type id
    trace::Context ctx;      // ambient trace context to run under
    Time period;             // > 0: recurring (Simulator::every)
    Time until;              // recurring: last time it may re-arm to
    EventFn fn;
  };

  EventQueue() = default;
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Takes a free slot, stores `fn` in it and queues it at `at`. The caller
  // fills in the returned slot's metadata.
  template <class F>
  std::pair<EventHandle, Event*> schedule(Time at, F&& fn) {
    const std::uint32_t slot = acquire();
    Event& e = event(slot);
    e.fn.emplace(std::forward<F>(fn));
    return {arm(slot, at), &e};
  }

  // True when no live (uncancelled) events remain.
  bool empty() {
    drop_dead();
    return heap_.empty();
  }

  // Time of the earliest live event. Precondition: !empty().
  Time next_time() {
    drop_dead();
    SPRITE_CHECK_MSG(!heap_.empty(), "next_time on empty queue");
    return heap_.front().at;
  }

  // Pops the earliest live event. Its slot is no longer pending but stays
  // reserved, callable intact, until the caller hands it to arm() or
  // release(). Precondition: !empty().
  struct Popped {
    Time at;
    std::uint32_t slot;
  };
  Popped pop();

  Event& event(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  // Queues `slot` at `at` under a fresh seq: a slot schedule() just took,
  // or a popped one again.
  EventHandle arm(std::uint32_t slot, Time at);

  // Destroys a popped slot's callable and returns the slot to the pool.
  void release(std::uint32_t slot);

  // Keys currently held, including cancelled ones not yet discarded. Cheap,
  // deterministic; feeds the sim.engine.queue.peak gauge.
  std::size_t size() const { return heap_.size(); }

 private:
  friend class EventHandle;

  static constexpr unsigned kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;
  static constexpr unsigned kSlotBits = 24;  // low bits of Key::tag
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;

  // Heap key: orders by time, then seq (the tag's high bits; seqs are
  // unique, so the slot bits never decide).
  struct Key {
    Time at;
    std::uint64_t tag;  // seq << kSlotBits | slot
    auto operator<=>(const Key&) const = default;
  };

  std::uint32_t acquire();
  void cancel(std::uint32_t slot, std::uint64_t seq);
  bool live(const Key& k) {
    return event(static_cast<std::uint32_t>(k.tag & kSlotMask)).seq ==
           k.tag >> kSlotBits;
  }
  // Discards cancelled keys at the front.
  void drop_dead() {
    while (!heap_.empty() && !live(heap_.front())) pop_key();
  }
  void pop_key();

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Event[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t slots_ = 0;  // slots handed out so far, across all chunks
  std::uint64_t next_seq_ = 1;
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancel(slot_, seq_);
}

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->event(slot_).seq == seq_;
}

}  // namespace sprite::sim
