#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "fastcast/runtime/context.hpp"

/// \file delivery_buffer.hpp
/// The buffer "B" of Algorithms 1 and 2, shared by BaseCast and FastCast.
///
/// Holds the tentative timestamps of undelivered messages, forms final
/// timestamps once SYNC-HARD entries from every destination group are
/// present (Task 5 / Task 7), and a-delivers messages whose final
/// timestamp is smaller than every tentative timestamp still buffered.
///
/// Two deviations from the paper's pseudocode, both deliberate:
///   * Tie-break — timestamps are compared as (ts, message id) pairs;
///     the pseudocode's strict `ts < x` would livelock on equal final
///     timestamps, which Lamport-clock maxima do produce.
///   * kPendingHard placeholders — when a group decides SET-HARD for a
///     global message it records its own (not yet ordered) hard timestamp
///     here, as BaseCast's line 22 does. Algorithm 2 omits this insert;
///     without it a message whose SET-HARD was decided earlier (with a
///     smaller clock value) could be overtaken, violating prefix order.
///     The placeholder is replaced when the group's own SYNC-HARD is
///     ordered, so the fast path is unaffected.
///
/// Message bodies arrive via START and may lag behind timestamps (tuples
/// carry only ids); delivery stalls until the body is present.

namespace fastcast {

/// Kinds of entries B can hold for one (message, group) pair.
enum class EntryKind : std::uint8_t {
  kPendingHard,  ///< own group's hard ts, decided but not yet ordered
  kSyncSoft,     ///< ordered soft tentative timestamp (FastCast)
  kSyncHard,     ///< ordered hard tentative timestamp
};

class DeliveryBuffer {
 public:
  using DeliverFn = std::function<void(Context&, const MulticastMessage&)>;
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Records the destination set of a message (idempotent).
  void note_dst(MsgId mid, GroupSet dst);

  /// Stores the application message carried by START; may unblock delivery.
  /// With storage present the body is also WAL-logged (kBody): once the
  /// origin's retransmission stops, this node's disk is the only place the
  /// payload survives a crash before delivery.
  void store_body(Context& ctx, const MulticastMessage& msg);
  bool has_body(MsgId mid) const;

  /// Recovery: marks messages as already a-delivered (never again) without
  /// counting them or invoking the upcall.
  void restore_delivered(const std::set<MsgId>& delivered);

  /// Recovery: re-installs a persisted body (and its destination set)
  /// without attempting delivery — timestamps arrive separately via the
  /// protocol layer's catch-up.
  void restore_body(const MulticastMessage& msg);

  /// Adds one tentative-timestamp entry. At most one entry per
  /// (kind, group, mid) — duplicates are ignored (the protocol layer's
  /// Ordered set normally prevents them).
  void add_entry(Context& ctx, EntryKind kind, GroupId group, Ts ts, MsgId mid);

  /// Drops the kPendingHard placeholder of `group` for `mid` (called when
  /// the group's own SYNC-HARD gets ordered).
  void remove_pending_hard(Context& ctx, MsgId mid, GroupId group);

  /// Returns the ordered soft timestamp of (group, mid) if present —
  /// FastCast's Task 6 match test.
  std::optional<Ts> sync_soft_ts(MsgId mid, GroupId group) const;
  bool has_sync_hard(MsgId mid, GroupId group) const;

  /// Forms the final timestamp if every destination's SYNC-HARD is present
  /// and attempts deliveries. Also invoked internally by add_entry.
  void try_deliver(Context& ctx);

  // Introspection.
  std::size_t undelivered_count() const { return msgs_.size(); }
  std::size_t blocking_count() const { return blocking_.size(); }
  std::uint64_t delivered_count() const { return delivered_count_; }
  bool was_delivered(MsgId mid) const { return delivered_.contains(mid); }

 private:
  struct Entry {
    EntryKind kind;
    GroupId group;
    Ts ts;
  };

  struct PerMessage {
    GroupSet dst;
    bool dst_known = false;
    std::optional<MulticastMessage> body;
    std::vector<Entry> entries;
    bool final_formed = false;
    TsKey final_key;
    std::size_t sync_hard_count = 0;
  };

  void try_form_final(Context& ctx, MsgId mid, PerMessage& pm);

  DeliverFn deliver_;
  std::unordered_map<MsgId, PerMessage> msgs_;
  /// Every tentative entry and every formed FINAL, as (ts, mid) keys.
  std::multiset<TsKey> blocking_;
  /// Formed FINALs awaiting delivery.
  std::set<TsKey> finals_;
  std::set<MsgId> delivered_;
  std::uint64_t delivered_count_ = 0;
};

}  // namespace fastcast
