#include "fastcast/paxos/learner.hpp"

#include <algorithm>
#include <bit>

#include "fastcast/common/assert.hpp"

namespace fastcast::paxos {

Learner::Learner(std::vector<NodeId> acceptors)
    : acceptors_(std::move(acceptors)), quorum_(acceptors_.size() / 2 + 1) {
  FC_ASSERT(!acceptors_.empty() && acceptors_.size() <= 64);
}

void Learner::on_p2b(Context& ctx, const P2b& msg) {
  if (is_decided(msg.instance)) return;

  // Round 0 is reserved for "never voted": no proposer ever runs Phase 2 at
  // it, so a round-0 vote can only be an acceptor replaying a value it
  // installed from a repair transfer — decided by construction, one report
  // suffices. Counting it as an ordinary vote would split the quorum
  // between the sentinel and the real accept ballot and stall small gaps.
  if (msg.ballot.round == 0) {
    force_decided(ctx, msg.instance, msg.value);
    return;
  }

  const auto pos = std::find(acceptors_.begin(), acceptors_.end(), msg.acceptor);
  if (pos == acceptors_.end()) return;  // not an acceptor of this group
  const std::size_t offset = msg.instance - next_deliver_;
  if (offset >= window_.size()) window_.resize(offset + 1);
  VoteSlot& slot = window_[offset];
  if (slot.voters == 0 || msg.ballot > slot.ballot) {
    // First vote, or votes at a higher ballot supersede lower-ballot ones.
    slot.ballot = msg.ballot;
    slot.voters = 0;
  } else if (msg.ballot < slot.ballot) {
    return;  // stale vote
  }
  slot.voters |= std::uint64_t{1} << (pos - acceptors_.begin());
  if (static_cast<std::size_t>(std::popcount(slot.voters)) < quorum_) return;

  // Decided. All votes at one ballot carry the same value by the Paxos
  // acceptance invariant, so this vote's value is the decided one.
  slot = VoteSlot{};
  if (observer_) observer_(msg.instance, msg.value);
  decided(msg.instance, msg.value);
}

void Learner::set_start(InstanceId start) {
  for (; next_deliver_ < start; ++next_deliver_) {
    if (!window_.empty()) window_.pop_front();
  }
  decided_.erase(decided_.begin(), decided_.lower_bound(start));
}

bool Learner::force_decided(Context&, InstanceId inst,
                            const std::vector<std::byte>& value) {
  if (is_decided(inst)) return false;
  if (observer_) observer_(inst, value);
  decided(inst, value);
  return true;
}

void Learner::decided(InstanceId inst, const std::vector<std::byte>& value) {
  if (inst != next_deliver_) {
    decided_.emplace(inst, value);
    return;
  }
  // In order: straight to the upcall, no detour through decided_; then
  // every parked successor this unblocks.
  const std::vector<std::byte>* v = &value;
  std::vector<std::byte> parked;
  while (true) {
    ++next_deliver_;
    if (!window_.empty()) window_.pop_front();
    if (decide_) decide_(inst, *v);
    auto it = decided_.find(next_deliver_);
    if (it == decided_.end()) return;
    parked = std::move(it->second);
    decided_.erase(it);
    inst = next_deliver_;
    v = &parked;
  }
}

}  // namespace fastcast::paxos
