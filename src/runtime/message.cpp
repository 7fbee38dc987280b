#include "fastcast/runtime/message.hpp"

#include "fastcast/common/assert.hpp"

namespace fastcast {

namespace {

// Stable wire tags; order must never change once released.
enum class WireTag : std::uint8_t {
  kRmData = 1,
  kRmAck = 2,
  kP1a = 3,
  kP1b = 4,
  kP2a = 5,
  kP2b = 6,
  kPaxosNack = 7,
  kMpSubmit = 8,
  kAmAck = 9,
  kFdHeartbeat = 10,
  kP2bRequest = 11,
  kWatermarkAnnounce = 12,
  kRepairRequest = 13,
  kRepairSnapshot = 14,
  kP2bMore = 15,
  kMpBody = 16,
  kMpBodyRequest = 17,
  kBusy = 18,
};

enum class AmTag : std::uint8_t { kStart = 1, kSendSoft = 2, kSendHard = 3 };

void encode_groups(Writer& w, const std::vector<GroupId>& gs) {
  w.varint(gs.size());
  for (GroupId g : gs) w.varint(g);
}

bool decode_groups(Reader& r, std::vector<GroupId>& out) {
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > r.remaining()) return false;  // each entry ≥ 1 byte
  out.resize(n);
  for (auto& g : out) g = static_cast<GroupId>(r.varint());
  return r.ok();
}

// A GroupSet travels exactly like an ascending group list, so the bytes do
// not depend on which of the two representations the sender held.
void encode_groups(Writer& w, GroupSet gs) {
  w.varint(gs.size());
  for (GroupId g : gs) w.varint(g);
}

/// Accepts only what encode_groups(GroupSet) emits: ids below kMaxGroups in
/// strictly ascending order (no duplicates).
bool decode_groups(Reader& r, GroupSet& out) {
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > GroupSet::kMaxGroups) return false;
  out = GroupSet{};
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t g = r.varint();
    if (!r.ok() || g >= GroupSet::kMaxGroups) return false;
    if ((out.mask() >> g) != 0) return false;  // not above every earlier id
    out.insert(static_cast<GroupId>(g));
  }
  return true;
}

void encode_ballot(Writer& w, const Ballot& b) {
  w.u32(b.round);
  w.u32(b.node);
}

bool decode_ballot(Reader& r, Ballot& b) {
  b.round = r.u32();
  b.node = r.u32();
  return r.ok();
}

void encode_value(Writer& w, const std::vector<std::byte>& v) { w.bytes(v); }

bool decode_value(Reader& r, std::vector<std::byte>& v) {
  v = r.bytes();
  return r.ok();
}

void encode_amcast(Writer& w, const AmcastPayload& p) {
  if (const auto* s = std::get_if<AmStart>(&p)) {
    w.u8(static_cast<std::uint8_t>(AmTag::kStart));
    encode(w, s->msg);
  } else if (const auto* ss = std::get_if<AmSendSoft>(&p)) {
    w.u8(static_cast<std::uint8_t>(AmTag::kSendSoft));
    w.varint(ss->from_group);
    w.varint(ss->ts);
    w.u64(ss->mid);
    encode_groups(w, ss->dst);
  } else {
    const auto& sh = std::get<AmSendHard>(p);
    w.u8(static_cast<std::uint8_t>(AmTag::kSendHard));
    w.varint(sh.from_group);
    w.varint(sh.ts);
    w.u64(sh.mid);
    encode_groups(w, sh.dst);
  }
}

bool decode_amcast(Reader& r, AmcastPayload& out) {
  const auto tag = static_cast<AmTag>(r.u8());
  if (!r.ok()) return false;
  switch (tag) {
    case AmTag::kStart: {
      AmStart s;
      if (!decode(r, s.msg)) return false;
      out = std::move(s);
      return true;
    }
    case AmTag::kSendSoft: {
      AmSendSoft s;
      s.from_group = static_cast<GroupId>(r.varint());
      s.ts = r.varint();
      s.mid = r.u64();
      if (!decode_groups(r, s.dst)) return false;
      out = std::move(s);
      return r.ok();
    }
    case AmTag::kSendHard: {
      AmSendHard s;
      s.from_group = static_cast<GroupId>(r.varint());
      s.ts = r.varint();
      s.mid = r.u64();
      if (!decode_groups(r, s.dst)) return false;
      out = std::move(s);
      return r.ok();
    }
  }
  return false;
}

}  // namespace

const char* to_string(TupleKind k) {
  switch (k) {
    case TupleKind::kSetHard: return "SET-HARD";
    case TupleKind::kSyncSoft: return "SYNC-SOFT";
    case TupleKind::kSyncHard: return "SYNC-HARD";
  }
  return "?";
}

const char* message_kind(const Message& m) {
  struct Visitor {
    const char* operator()(const RmData&) const { return "RmData"; }
    const char* operator()(const RmAck&) const { return "RmAck"; }
    const char* operator()(const P1a&) const { return "P1a"; }
    const char* operator()(const P1b&) const { return "P1b"; }
    const char* operator()(const P2a&) const { return "P2a"; }
    const char* operator()(const P2b&) const { return "P2b"; }
    const char* operator()(const PaxosNack&) const { return "PaxosNack"; }
    const char* operator()(const P2bRequest&) const { return "P2bRequest"; }
    const char* operator()(const MpSubmit&) const { return "MpSubmit"; }
    const char* operator()(const AmAck&) const { return "AmAck"; }
    const char* operator()(const FdHeartbeat&) const { return "FdHeartbeat"; }
    const char* operator()(const WatermarkAnnounce&) const { return "WatermarkAnnounce"; }
    const char* operator()(const RepairRequest&) const { return "RepairRequest"; }
    const char* operator()(const RepairSnapshot&) const { return "RepairSnapshot"; }
    const char* operator()(const P2bMore&) const { return "P2bMore"; }
    const char* operator()(const MpBody&) const { return "MpBody"; }
    const char* operator()(const MpBodyRequest&) const { return "MpBodyRequest"; }
    const char* operator()(const Busy&) const { return "Busy"; }
  };
  return std::visit(Visitor{}, m.payload);
}

namespace {

// Member templates are illegal in local classes, so the visitor lives here.
struct WireBytesVisitor {
  std::size_t operator()(const RmData& d) const {
    std::size_t n = 8 * d.dest_nodes.size() + d.dst_groups.size();
    if (const auto* s = std::get_if<AmStart>(&d.inner)) {
      n += s->msg.payload.size() + s->msg.dst.size();
    }
    return n;
  }
  std::size_t operator()(const P1b& p) const {
    std::size_t n = 0;
    for (const auto& e : p.accepted) n += 16 + e.value.size();
    return n;
  }
  std::size_t operator()(const P2a& p) const { return p.value.size(); }
  std::size_t operator()(const P2b& p) const { return p.value.size(); }
  std::size_t operator()(const MpSubmit& s) const {
    return s.msg.payload.size() + s.msg.dst.size();
  }
  std::size_t operator()(const MpBody& b) const {
    return b.msg.payload.size() + b.msg.dst.size();
  }
  std::size_t operator()(const RepairSnapshot& s) const {
    return s.payload.size();
  }
  template <typename T>
  std::size_t operator()(const T&) const {
    return 0;
  }
};

}  // namespace

std::size_t approx_wire_bytes(const Message& m) {
  // Fixed allowance for the tag plus small scalar fields; only the fields
  // that can dominate a frame are counted exactly.
  constexpr std::size_t kBase = 16;
  return kBase + std::visit(WireBytesVisitor{}, m.payload);
}

void encode(Writer& w, const MulticastMessage& m) {
  w.u64(m.id);
  w.u32(m.sender);
  encode_groups(w, m.dst);
  w.str(m.payload);
}

bool decode(Reader& r, MulticastMessage& out) {
  out.id = r.u64();
  out.sender = r.u32();
  if (!decode_groups(r, out.dst)) return false;
  out.payload = r.str();
  return r.ok();
}

void encode(Writer& w, const Tuple& t) {
  w.u8(static_cast<std::uint8_t>(t.kind));
  w.varint(t.group);
  w.varint(t.ts);
  w.u64(t.mid);
  encode_groups(w, t.dst);
}

bool decode(Reader& r, Tuple& out) {
  const std::uint8_t k = r.u8();
  if (!r.ok() || k > static_cast<std::uint8_t>(TupleKind::kSyncHard)) return false;
  out.kind = static_cast<TupleKind>(k);
  out.group = static_cast<GroupId>(r.varint());
  out.ts = r.varint();
  out.mid = r.u64();
  if (!decode_groups(r, out.dst)) return false;
  return r.ok();
}

std::vector<std::byte> encode_tuples(const std::vector<Tuple>& tuples) {
  std::vector<std::byte> out;
  encode_tuples_into(tuples, out);
  return out;
}

void encode_tuples_into(const std::vector<Tuple>& tuples,
                        std::vector<std::byte>& out) {
  out.clear();
  Writer w(std::move(out));
  w.varint(tuples.size());
  for (const Tuple& t : tuples) encode(w, t);
  out = w.take();
}

bool decode_tuples(std::span<const std::byte> bytes, std::vector<Tuple>& out) {
  Reader r(bytes);
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > bytes.size()) return false;
  out.clear();
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    Tuple t;
    if (!decode(r, t)) return false;
    out.push_back(std::move(t));
  }
  return r.at_end();
}

std::vector<std::byte> encode_msg_batch(const std::vector<MulticastMessage>& msgs) {
  std::vector<std::byte> out;
  encode_msg_batch_into(msgs, out);
  return out;
}

void encode_msg_batch_into(const std::vector<MulticastMessage>& msgs,
                           std::vector<std::byte>& out) {
  out.clear();
  Writer w(std::move(out));
  w.varint(msgs.size());
  for (const auto& m : msgs) encode(w, m);
  out = w.take();
}

bool decode_msg_batch(std::span<const std::byte> bytes,
                      std::vector<MulticastMessage>& out) {
  Reader r(bytes);
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > bytes.size()) return false;
  out.clear();
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    MulticastMessage m;
    if (!decode(r, m)) return false;
    out.push_back(std::move(m));
  }
  return r.at_end();
}

namespace {

void encode_id_record(Writer& w, const MpIdRecord& rec) {
  w.u64(rec.mid);
  w.u32(rec.sender);
  encode_groups(w, rec.dst);
}

bool decode_id_record(Reader& r, MpIdRecord& out) {
  out.mid = r.u64();
  out.sender = r.u32();
  if (!decode_groups(r, out.dst)) return false;
  return r.ok();
}

}  // namespace

std::vector<std::byte> encode_id_batch(const std::vector<MpIdRecord>& records) {
  std::vector<std::byte> out;
  encode_id_batch_into(records, out);
  return out;
}

void encode_id_batch_into(const std::vector<MpIdRecord>& records,
                          std::vector<std::byte>& out) {
  out.clear();
  Writer w(std::move(out));
  w.varint(records.size());
  for (const MpIdRecord& rec : records) encode_id_record(w, rec);
  out = w.take();
}

bool decode_id_batch(std::span<const std::byte> bytes,
                     std::vector<MpIdRecord>& out) {
  Reader r(bytes);
  const std::uint64_t n = r.varint();
  if (!r.ok() || n > bytes.size()) return false;
  out.clear();
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    MpIdRecord rec;
    if (!decode_id_record(r, rec)) return false;
    out.push_back(std::move(rec));
  }
  return r.at_end();
}

void encode(Writer& w, const Message& m) {
  struct Visitor {
    Writer& w;

    void operator()(const RmData& d) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kRmData));
      w.u32(d.origin);
      w.u64(d.seq);
      encode_groups(w, d.dst_groups);
      w.varint(d.dest_nodes.size());
      FC_ASSERT(d.dest_nodes.size() == d.dest_seqs.size());
      for (std::size_t i = 0; i < d.dest_nodes.size(); ++i) {
        w.u32(d.dest_nodes[i]);
        w.varint(d.dest_seqs[i]);
      }
      encode_amcast(w, d.inner);
      // Optional trailing deadline + sent_at: only meaningful for START
      // envelopes, and only emitted when set, so pre-deadline golden bytes
      // still hold. The pair is written together to keep positions fixed.
      if (const auto* s = std::get_if<AmStart>(&d.inner);
          s != nullptr && (s->msg.deadline > 0 || s->msg.sent_at > 0)) {
        w.varint(static_cast<std::uint64_t>(s->msg.deadline));
        w.varint(static_cast<std::uint64_t>(s->msg.sent_at));
      }
    }
    void operator()(const RmAck& a) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kRmAck));
      w.u32(a.origin);
      w.u64(a.seq);
    }
    void operator()(const P1a& p) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kP1a));
      w.varint(p.group);
      encode_ballot(w, p.ballot);
      w.u64(p.from_instance);
    }
    void operator()(const P1b& p) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kP1b));
      w.varint(p.group);
      encode_ballot(w, p.ballot);
      w.u64(p.from_instance);
      w.varint(p.accepted.size());
      for (const auto& e : p.accepted) {
        w.u64(e.instance);
        encode_ballot(w, e.vballot);
        encode_value(w, e.value);
      }
    }
    void operator()(const P2a& p) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kP2a));
      w.varint(p.group);
      encode_ballot(w, p.ballot);
      w.u64(p.instance);
      encode_value(w, p.value);
    }
    void operator()(const P2b& p) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kP2b));
      w.varint(p.group);
      encode_ballot(w, p.ballot);
      w.u64(p.instance);
      w.u32(p.acceptor);
      encode_value(w, p.value);
    }
    void operator()(const PaxosNack& p) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kPaxosNack));
      w.varint(p.group);
      encode_ballot(w, p.promised);
      w.u64(p.instance);
    }
    void operator()(const P2bRequest& p) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kP2bRequest));
      w.varint(p.group);
      w.u64(p.from_instance);
    }
    void operator()(const MpSubmit& s) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kMpSubmit));
      encode(w, s.msg);
      if (s.msg.deadline > 0 || s.msg.sent_at > 0) {
        w.varint(static_cast<std::uint64_t>(s.msg.deadline));
        w.varint(static_cast<std::uint64_t>(s.msg.sent_at));
      }
    }
    void operator()(const AmAck& a) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kAmAck));
      w.u64(a.mid);
      w.varint(a.from_group);
      w.u32(a.deliverer);
    }
    void operator()(const FdHeartbeat& h) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kFdHeartbeat));
      w.varint(h.group);
      w.u32(h.from);
      w.u64(h.epoch);
    }
    void operator()(const WatermarkAnnounce& a) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kWatermarkAnnounce));
      w.varint(a.group);
      w.u32(a.from);
      w.u64(a.settled);
      w.u64(a.frontier);
    }
    void operator()(const RepairRequest& q) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kRepairRequest));
      w.varint(q.group);
      w.u64(q.from_instance);
    }
    void operator()(const RepairSnapshot& s) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kRepairSnapshot));
      w.varint(s.group);
      w.u64(s.from_instance);
      w.u64(s.watermark);
      w.u8(s.last ? 1 : 0);
      w.u32(s.payload_crc);
      encode_value(w, s.payload);
    }
    void operator()(const P2bMore& m2) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kP2bMore));
      w.varint(m2.group);
      w.u64(m2.next_instance);
    }
    void operator()(const MpBody& b) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kMpBody));
      encode(w, b.msg);
      if (b.msg.deadline > 0 || b.msg.sent_at > 0) {
        w.varint(static_cast<std::uint64_t>(b.msg.deadline));
        w.varint(static_cast<std::uint64_t>(b.msg.sent_at));
      }
    }
    void operator()(const MpBodyRequest& q) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kMpBodyRequest));
      w.u64(q.mid);
    }
    void operator()(const Busy& b) const {
      w.u8(static_cast<std::uint8_t>(WireTag::kBusy));
      w.u64(b.mid);
      w.u8(static_cast<std::uint8_t>(b.reason));
      w.u8(b.advisory ? 1 : 0);
      w.varint(static_cast<std::uint64_t>(b.retry_after));
    }
  };
  std::visit(Visitor{w}, m.payload);
}

bool decode(Reader& r, Message& out) {
  const auto tag = static_cast<WireTag>(r.u8());
  if (!r.ok()) return false;
  switch (tag) {
    case WireTag::kRmData: {
      RmData d;
      d.origin = r.u32();
      d.seq = r.u64();
      if (!decode_groups(r, d.dst_groups)) return false;
      const std::uint64_t n = r.varint();
      if (!r.ok() || n > r.remaining()) return false;
      d.dest_nodes.resize(n);
      d.dest_seqs.resize(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        d.dest_nodes[i] = r.u32();
        d.dest_seqs[i] = r.varint();
      }
      if (!decode_amcast(r, d.inner)) return false;
      if (auto* s = std::get_if<AmStart>(&d.inner);
          s != nullptr && r.remaining() > 0) {
        s->msg.deadline = static_cast<Time>(r.varint());
        if (r.remaining() > 0) s->msg.sent_at = static_cast<Time>(r.varint());
      }
      out.payload = std::move(d);
      return r.ok();
    }
    case WireTag::kRmAck: {
      RmAck a;
      a.origin = r.u32();
      a.seq = r.u64();
      out.payload = a;
      return r.ok();
    }
    case WireTag::kP1a: {
      P1a p;
      p.group = static_cast<GroupId>(r.varint());
      if (!decode_ballot(r, p.ballot)) return false;
      p.from_instance = r.u64();
      out.payload = p;
      return r.ok();
    }
    case WireTag::kP1b: {
      P1b p;
      p.group = static_cast<GroupId>(r.varint());
      if (!decode_ballot(r, p.ballot)) return false;
      p.from_instance = r.u64();
      const std::uint64_t n = r.varint();
      if (!r.ok() || n > r.remaining()) return false;
      p.accepted.resize(n);
      for (auto& e : p.accepted) {
        e.instance = r.u64();
        if (!decode_ballot(r, e.vballot)) return false;
        if (!decode_value(r, e.value)) return false;
      }
      out.payload = std::move(p);
      return r.ok();
    }
    case WireTag::kP2a: {
      P2a p;
      p.group = static_cast<GroupId>(r.varint());
      if (!decode_ballot(r, p.ballot)) return false;
      p.instance = r.u64();
      if (!decode_value(r, p.value)) return false;
      out.payload = std::move(p);
      return r.ok();
    }
    case WireTag::kP2b: {
      P2b p;
      p.group = static_cast<GroupId>(r.varint());
      if (!decode_ballot(r, p.ballot)) return false;
      p.instance = r.u64();
      p.acceptor = r.u32();
      if (!decode_value(r, p.value)) return false;
      out.payload = std::move(p);
      return r.ok();
    }
    case WireTag::kPaxosNack: {
      PaxosNack p;
      p.group = static_cast<GroupId>(r.varint());
      if (!decode_ballot(r, p.promised)) return false;
      p.instance = r.u64();
      out.payload = p;
      return r.ok();
    }
    case WireTag::kP2bRequest: {
      P2bRequest p;
      p.group = static_cast<GroupId>(r.varint());
      p.from_instance = r.u64();
      out.payload = p;
      return r.ok();
    }
    case WireTag::kMpSubmit: {
      MpSubmit s;
      if (!decode(r, s.msg)) return false;
      if (r.remaining() > 0) {
        s.msg.deadline = static_cast<Time>(r.varint());
        if (r.remaining() > 0) s.msg.sent_at = static_cast<Time>(r.varint());
      }
      out.payload = std::move(s);
      return r.ok();
    }
    case WireTag::kAmAck: {
      AmAck a;
      a.mid = r.u64();
      a.from_group = static_cast<GroupId>(r.varint());
      a.deliverer = r.u32();
      out.payload = a;
      return r.ok();
    }
    case WireTag::kFdHeartbeat: {
      FdHeartbeat h;
      h.group = static_cast<GroupId>(r.varint());
      h.from = r.u32();
      h.epoch = r.u64();
      out.payload = h;
      return r.ok();
    }
    case WireTag::kWatermarkAnnounce: {
      WatermarkAnnounce a;
      a.group = static_cast<GroupId>(r.varint());
      a.from = r.u32();
      a.settled = r.u64();
      a.frontier = r.u64();
      out.payload = a;
      return r.ok();
    }
    case WireTag::kRepairRequest: {
      RepairRequest q;
      q.group = static_cast<GroupId>(r.varint());
      q.from_instance = r.u64();
      out.payload = q;
      return r.ok();
    }
    case WireTag::kRepairSnapshot: {
      RepairSnapshot s;
      s.group = static_cast<GroupId>(r.varint());
      s.from_instance = r.u64();
      s.watermark = r.u64();
      const std::uint8_t last = r.u8();
      if (!r.ok() || last > 1) return false;
      s.last = last != 0;
      s.payload_crc = r.u32();
      if (!decode_value(r, s.payload)) return false;
      out.payload = std::move(s);
      return r.ok();
    }
    case WireTag::kP2bMore: {
      P2bMore m2;
      m2.group = static_cast<GroupId>(r.varint());
      m2.next_instance = r.u64();
      out.payload = m2;
      return r.ok();
    }
    case WireTag::kMpBody: {
      MpBody b;
      if (!decode(r, b.msg)) return false;
      if (r.remaining() > 0) {
        b.msg.deadline = static_cast<Time>(r.varint());
        if (r.remaining() > 0) b.msg.sent_at = static_cast<Time>(r.varint());
      }
      out.payload = std::move(b);
      return r.ok();
    }
    case WireTag::kMpBodyRequest: {
      MpBodyRequest q;
      q.mid = r.u64();
      out.payload = q;
      return r.ok();
    }
    case WireTag::kBusy: {
      Busy b;
      b.mid = r.u64();
      const std::uint8_t reason = r.u8();
      if (!r.ok() || reason > static_cast<std::uint8_t>(Busy::Reason::kExpired))
        return false;
      b.reason = static_cast<Busy::Reason>(reason);
      const std::uint8_t advisory = r.u8();
      if (!r.ok() || advisory > 1) return false;
      b.advisory = advisory != 0;
      b.retry_after = static_cast<Duration>(r.varint());
      out.payload = b;
      return r.ok();
    }
  }
  return false;
}

std::vector<std::byte> encode_message(const Message& m) {
  std::vector<std::byte> out;
  out.reserve(128);
  encode_message_into(m, out);
  return out;
}

void encode_message_into(const Message& m, std::vector<std::byte>& out) {
  out.clear();
  Writer w(std::move(out));
  encode(w, m);
  out = w.take();
}

bool decode_message(std::span<const std::byte> bytes, Message& out) {
  Reader r(bytes);
  if (!decode(r, out)) return false;
  return r.at_end();
}

}  // namespace fastcast
