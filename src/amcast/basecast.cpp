#include "fastcast/amcast/basecast.hpp"

#include "fastcast/common/assert.hpp"

namespace fastcast {

void BaseCast::on_rdeliver(Context& ctx, NodeId origin, const AmcastPayload& payload) {
  (void)origin;
  if (const auto* start = std::get_if<AmStart>(&payload)) {
    // Task 1: request a hard tentative timestamp from our group.
    buffer_.store_body(ctx, start->msg);
    stage(ctx, Tuple{TupleKind::kSetHard, cfg_.group, 0, start->msg.id,
                     GroupSet(start->msg.dst)});
    return;
  }
  if (const auto* hard = std::get_if<AmSendHard>(&payload)) {
    // Task 2: order the remote group's hard tentative timestamp.
    buffer_.note_dst(hard->mid, hard->dst);
    stage(ctx, Tuple{TupleKind::kSyncHard, hard->from_group, hard->ts, hard->mid,
                     hard->dst});
    return;
  }
  FC_ASSERT_MSG(false, "BaseCast received a SEND-SOFT");
}

void BaseCast::apply_tuple(Context& ctx, const Tuple& tuple) {
  switch (tuple.kind) {
    case TupleKind::kSetHard:
      handle_set_hard(ctx, tuple);
      return;
    case TupleKind::kSyncHard:
      handle_sync_hard(ctx, tuple);
      return;
    case TupleKind::kSyncSoft:
      FC_ASSERT_MSG(false, "BaseCast ordered a SYNC-SOFT");
  }
}

}  // namespace fastcast
