#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "fastcast/common/assert.hpp"
#include "fastcast/common/time.hpp"
#include "fastcast/runtime/context.hpp"

/// \file timer_heap.hpp
/// Min-heap of armed timers with lazy cancellation and stale-entry
/// compaction. cancel() erases the callback but leaves the heap entry in
/// place (removing an arbitrary heap element is O(n)); stale entries are
/// skipped when they surface. Without compaction, arm-and-cancel loops —
/// failure detectors re-arming on every heartbeat — grow the heap without
/// bound; compaction rebuilds it whenever stale entries outnumber live
/// ones past a minimum size, bounding heap_size() ≤ max(kCompactMin,
/// 2 × armed()) outside the transient where a cancel burst just landed.
/// Callbacks live in slots reused through a free list; a TimerId is a
/// schedule sequence number above its slot index, so ids order timers by
/// scheduling and a released slot's old id never matches it again.

namespace fastcast::net {

class TimerHeap {
 public:
  /// Below this size compaction is skipped: rebuilding a tiny heap costs
  /// more than the stale entries it reclaims.
  static constexpr std::size_t kCompactMin = 64;

  TimerId schedule(Time at, std::function<void()> cb) {
    if (free_.empty()) {
      FC_ASSERT(slots_.size() <= kSlotMask);
      free_.push_back(slots_.size());
      slots_.emplace_back();
    }
    const TimerId id = (next_seq_++ << kSlotBits) | free_.back();
    free_.pop_back();
    slots_[id & kSlotMask] = Slot{id, std::move(cb)};
    heap_.push_back({at, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return id;
  }

  void cancel(TimerId id) {
    if (live(id)) release(id);
    if (heap_.size() >= kCompactMin && heap_.size() >= 2 * armed()) {
      compact();
    }
  }

  bool empty() const { return armed() == 0; }
  std::size_t armed() const { return slots_.size() - free_.size(); }
  std::size_t heap_size() const { return heap_.size(); }  ///< incl. stale

  /// Earliest live deadline; false when no timer is armed.
  bool next_due(Time& at) {
    prune_stale_head();
    if (heap_.empty()) return false;
    at = heap_.front().at;
    return true;
  }

  /// Pops and runs every callback due at or before `now`, in deadline
  /// order. Callbacks may re-entrantly schedule()/cancel(). Returns the
  /// number fired.
  std::size_t fire_due(Time now) {
    std::size_t fired = 0;
    for (;;) {
      prune_stale_head();
      if (heap_.empty() || heap_.front().at > now) break;
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      const TimerId id = heap_.back().id;
      heap_.pop_back();
      if (!live(id)) continue;  // cancelled while due
      auto cb = std::move(slots_[id & kSlotMask].cb);
      release(id);
      ++fired;
      cb();
    }
    return fired;
  }

  /// Drops every timer (crash semantics: armed timers do not survive).
  void clear() {
    slots_.clear();
    free_.clear();
    heap_.clear();
  }

 private:
  struct Entry {
    Time at;
    TimerId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.id > b.id;
    }
  };
  struct Slot {
    TimerId id = kInvalidTimer;  ///< the timer armed in this slot, if any
    std::function<void()> cb;
  };
  static constexpr int kSlotBits = 24;  ///< up to 16M timers armed at once
  static constexpr TimerId kSlotMask = (TimerId{1} << kSlotBits) - 1;

  bool live(TimerId id) const {
    return (id & kSlotMask) < slots_.size() && slots_[id & kSlotMask].id == id;
  }
  void release(TimerId id) {
    slots_[id & kSlotMask] = Slot{};
    free_.push_back(id & kSlotMask);
  }

  void prune_stale_head() {
    while (!heap_.empty() && !live(heap_.front().id)) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  void compact() {
    std::erase_if(heap_, [this](const Entry& e) { return !live(e.id); });
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<TimerId> free_;  ///< released slot indices
  TimerId next_seq_ = 1;
};

}  // namespace fastcast::net
