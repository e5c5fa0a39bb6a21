#include "durability/snapshot.h"

#include "durability/wal.h"
#include "net/wire.h"

namespace wdl {

namespace {

constexpr char kMagic[4] = {'W', 'D', 'L', 'S'};
constexpr uint16_t kFormatVersion = 1;

void PutTuples(WireEncoder* enc, const std::vector<Tuple>& tuples) {
  enc->PutU32(static_cast<uint32_t>(tuples.size()));
  for (const Tuple& t : tuples) enc->PutTuple(t);
}

Result<std::vector<Tuple>> GetTuples(WireDecoder* dec) {
  WDL_ASSIGN_OR_RETURN(uint32_t n, dec->GetU32());
  std::vector<Tuple> out;
  // No reserve by count: a corrupt count fails at the first missing
  // element instead of sizing an allocation (the wire-decoder rule).
  for (uint32_t i = 0; i < n; ++i) {
    WDL_ASSIGN_OR_RETURN(Tuple t, dec->GetTuple());
    out.push_back(std::move(t));
  }
  return out;
}

}  // namespace

std::string EncodeSnapshot(const SnapshotData& snap) {
  WireEncoder enc;
  enc.PutString(snap.peer);
  enc.PutU64(snap.next_rule_id);
  enc.PutU64(snap.next_seq);
  enc.PutU32(static_cast<uint32_t>(snap.known_peers.size()));
  for (const std::string& p : snap.known_peers) enc.PutString(p);

  enc.PutU32(static_cast<uint32_t>(snap.relations.size()));
  for (const SnapshotData::RelationState& rs : snap.relations) {
    enc.PutRelationDecl(rs.decl);
    PutTuples(&enc, rs.tuples);
  }

  enc.PutU32(static_cast<uint32_t>(snap.rules.size()));
  for (const SnapshotData::RuleState& r : snap.rules) {
    enc.PutU64(r.id);
    enc.PutString(r.origin_peer);
    enc.PutU64(r.delegation_key);
    enc.PutRule(r.rule);
  }

  enc.PutU32(static_cast<uint32_t>(snap.slices.size()));
  for (const SnapshotData::StreamState& ss : snap.slices) {
    enc.PutString(ss.relation);
    enc.PutString(ss.sender);
    enc.PutU64(ss.version);
    PutTuples(&enc, ss.tuples);
  }

  enc.PutU32(static_cast<uint32_t>(snap.sent.size()));
  for (const SnapshotData::SentState& s : snap.sent) {
    enc.PutString(s.target_peer);
    enc.PutString(s.relation);
    enc.PutU64(s.version);
    PutTuples(&enc, s.tuples);
  }

  enc.PutU32(static_cast<uint32_t>(snap.sent_delegations.size()));
  for (const Delegation& d : snap.sent_delegations) enc.PutDelegation(d);
  enc.PutU32(static_cast<uint32_t>(snap.pending_delegations.size()));
  for (const Delegation& d : snap.pending_delegations) enc.PutDelegation(d);

  std::string payload = enc.TakeBuffer();
  std::string out;
  out.reserve(payload.size() + 14);
  out.append(kMagic, 4);
  WireEncoder header;
  header.PutU16(kFormatVersion);
  header.PutU32(Crc32(payload));
  header.PutU32(static_cast<uint32_t>(payload.size()));
  out += header.TakeBuffer();
  out += payload;
  return out;
}

Result<SnapshotData> DecodeSnapshot(std::string_view bytes) {
  if (bytes.size() < 14 || std::string_view(bytes.data(), 4) !=
                               std::string_view(kMagic, 4)) {
    return Status::InvalidArgument("not a WDLS snapshot");
  }
  WireDecoder header(bytes.substr(4, 10));
  WDL_ASSIGN_OR_RETURN(uint16_t version, header.GetU16());
  if (version != kFormatVersion) {
    return Status::InvalidArgument("unsupported snapshot format version " +
                                   std::to_string(version));
  }
  WDL_ASSIGN_OR_RETURN(uint32_t crc, header.GetU32());
  WDL_ASSIGN_OR_RETURN(uint32_t length, header.GetU32());
  std::string_view payload = bytes.substr(14);
  if (payload.size() != length) {
    return Status::InvalidArgument("snapshot payload length mismatch");
  }
  if (Crc32(payload) != crc) {
    return Status::InvalidArgument("snapshot CRC mismatch");
  }

  WireDecoder dec(payload);
  SnapshotData snap;
  WDL_ASSIGN_OR_RETURN(snap.peer, dec.GetString());
  WDL_ASSIGN_OR_RETURN(snap.next_rule_id, dec.GetU64());
  WDL_ASSIGN_OR_RETURN(snap.next_seq, dec.GetU64());
  WDL_ASSIGN_OR_RETURN(uint32_t npeers, dec.GetU32());
  for (uint32_t i = 0; i < npeers; ++i) {
    WDL_ASSIGN_OR_RETURN(std::string p, dec.GetString());
    snap.known_peers.push_back(std::move(p));
  }

  WDL_ASSIGN_OR_RETURN(uint32_t nrels, dec.GetU32());
  for (uint32_t i = 0; i < nrels; ++i) {
    SnapshotData::RelationState rs;
    WDL_ASSIGN_OR_RETURN(rs.decl, dec.GetRelationDecl());
    WDL_ASSIGN_OR_RETURN(rs.tuples, GetTuples(&dec));
    snap.relations.push_back(std::move(rs));
  }

  WDL_ASSIGN_OR_RETURN(uint32_t nrules, dec.GetU32());
  for (uint32_t i = 0; i < nrules; ++i) {
    SnapshotData::RuleState r;
    WDL_ASSIGN_OR_RETURN(r.id, dec.GetU64());
    WDL_ASSIGN_OR_RETURN(r.origin_peer, dec.GetString());
    WDL_ASSIGN_OR_RETURN(r.delegation_key, dec.GetU64());
    WDL_ASSIGN_OR_RETURN(r.rule, dec.GetRule());
    snap.rules.push_back(std::move(r));
  }

  WDL_ASSIGN_OR_RETURN(uint32_t nslices, dec.GetU32());
  for (uint32_t i = 0; i < nslices; ++i) {
    SnapshotData::StreamState ss;
    WDL_ASSIGN_OR_RETURN(ss.relation, dec.GetString());
    WDL_ASSIGN_OR_RETURN(ss.sender, dec.GetString());
    WDL_ASSIGN_OR_RETURN(ss.version, dec.GetU64());
    WDL_ASSIGN_OR_RETURN(ss.tuples, GetTuples(&dec));
    snap.slices.push_back(std::move(ss));
  }

  WDL_ASSIGN_OR_RETURN(uint32_t nsent, dec.GetU32());
  for (uint32_t i = 0; i < nsent; ++i) {
    SnapshotData::SentState s;
    WDL_ASSIGN_OR_RETURN(s.target_peer, dec.GetString());
    WDL_ASSIGN_OR_RETURN(s.relation, dec.GetString());
    WDL_ASSIGN_OR_RETURN(s.version, dec.GetU64());
    WDL_ASSIGN_OR_RETURN(s.tuples, GetTuples(&dec));
    snap.sent.push_back(std::move(s));
  }

  WDL_ASSIGN_OR_RETURN(uint32_t nsentdel, dec.GetU32());
  for (uint32_t i = 0; i < nsentdel; ++i) {
    WDL_ASSIGN_OR_RETURN(Delegation d, dec.GetDelegation());
    snap.sent_delegations.push_back(std::move(d));
  }
  WDL_ASSIGN_OR_RETURN(uint32_t npending, dec.GetU32());
  for (uint32_t i = 0; i < npending; ++i) {
    WDL_ASSIGN_OR_RETURN(Delegation d, dec.GetDelegation());
    snap.pending_delegations.push_back(std::move(d));
  }
  if (!dec.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after snapshot payload");
  }
  return snap;
}

}  // namespace wdl
