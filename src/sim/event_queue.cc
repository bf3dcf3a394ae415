#include "sim/event_queue.h"

#include <algorithm>
#include <functional>

namespace sprite::sim {

EventQueue::~EventQueue() {
  // Mark every slot not pending before any callable is destroyed: a
  // captured object's destructor may still cancel a handle into this queue.
  for (std::uint32_t s = 0; s < slots_; ++s) event(s).seq = 0;
  for (std::uint32_t s = 0; s < slots_; ++s) event(s).fn.reset();
}

std::uint32_t EventQueue::acquire() {
  if (!free_.empty()) {
    const std::uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }
  SPRITE_CHECK_MSG(slots_ <= kSlotMask, "event slot pool exhausted");
  if (slots_ % kChunkSize == 0)
    chunks_.push_back(std::make_unique<Event[]>(kChunkSize));
  return slots_++;
}

EventHandle EventQueue::arm(std::uint32_t slot, Time at) {
  const std::uint64_t seq = next_seq_++;
  SPRITE_CHECK_MSG(seq < (std::uint64_t{1} << (64 - kSlotBits)),
                   "event sequence space exhausted");
  event(slot).seq = seq;
  heap_.push_back(Key{at, seq << kSlotBits | slot});
  std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  return EventHandle(this, slot, seq);
}

void EventQueue::pop_key() {
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
  heap_.pop_back();
}

EventQueue::Popped EventQueue::pop() {
  drop_dead();
  SPRITE_CHECK_MSG(!heap_.empty(), "pop on empty queue");
  const Key top = heap_.front();
  pop_key();
  const auto slot = static_cast<std::uint32_t>(top.tag & kSlotMask);
  event(slot).seq = 0;  // fired events are no longer pending
  return {top.at, slot};
}

void EventQueue::release(std::uint32_t slot) {
  event(slot).fn.reset();
  free_.push_back(slot);
}

void EventQueue::cancel(std::uint32_t slot, std::uint64_t seq) {
  Event& e = event(slot);
  if (e.seq != seq) return;
  // Not pending from here on, so a re-entrant cancel from the callable's
  // destructor is a no-op; the slot is reusable only once it is destroyed.
  e.seq = 0;
  release(slot);
}

}  // namespace sprite::sim
