#include "net/wire.h"

#include <cstring>

#include "base/string_util.h"

namespace wdl {

namespace {
constexpr char kMagic[4] = {'W', 'D', 'L', 'M'};
constexpr uint16_t kVersion = 1;
// Defense against hostile lengths: no single collection in a WebdamLog
// message plausibly exceeds this many elements.
constexpr uint32_t kMaxCount = 1u << 24;

// Smallest possible encodings, used to cap collection counts against
// the bytes actually left in the frame (GetCount). A count that claims
// more elements than the remainder could hold even at minimum size is
// corrupt or hostile, however large kMaxCount is.
constexpr size_t kMinValueBytes = 5;   // tag + u32 len of an empty string
constexpr size_t kMinTermBytes = 5;    // var tag + u32 len
constexpr size_t kMinTupleBytes = 4;   // u32 arity of an empty tuple
constexpr size_t kMinFactBytes = 12;   // two empty strings + empty tuple
constexpr size_t kMinAtomBytes = 15;   // neg tag + two symterms + u32 arity
constexpr size_t kMinColumnBytes = 5;  // u32 len of an empty name + type
}  // namespace

void WireEncoder::PutU16(uint16_t v) {
  PutU8(static_cast<uint8_t>(v));
  PutU8(static_cast<uint8_t>(v >> 8));
}

void WireEncoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void WireEncoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) PutU8(static_cast<uint8_t>(v >> (8 * i)));
}

void WireEncoder::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void WireEncoder::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void WireEncoder::PutValue(const Value& v) {
  PutU8(static_cast<uint8_t>(v.kind()));
  switch (v.kind()) {
    case ValueKind::kInt:
      PutU64(static_cast<uint64_t>(v.AsInt()));
      break;
    case ValueKind::kDouble:
      PutDouble(v.AsDouble());
      break;
    case ValueKind::kString:
      PutString(v.AsString());
      break;
    case ValueKind::kBlob:
      PutString(v.AsBlob().bytes);
      break;
    case ValueKind::kAny:
      break;  // never a live value; encoded as tag only
  }
}

void WireEncoder::PutTuple(const Tuple& t) {
  PutU32(static_cast<uint32_t>(t.size()));
  for (const Value& v : t) PutValue(v);
}

void WireEncoder::PutFact(const Fact& f) {
  PutString(f.relation);
  PutString(f.peer);
  PutTuple(f.args);
}

void WireEncoder::PutSymTerm(const SymTerm& t) {
  PutU8(t.is_variable() ? 1 : 0);
  PutString(t.is_variable() ? t.var() : t.name());
}

void WireEncoder::PutTerm(const Term& t) {
  PutU8(t.is_variable() ? 1 : 0);
  if (t.is_variable()) {
    PutString(t.var());
  } else {
    PutValue(t.value());
  }
}

void WireEncoder::PutAtom(const Atom& a) {
  PutU8(a.negated ? 1 : 0);
  PutSymTerm(a.relation);
  PutSymTerm(a.peer);
  PutU32(static_cast<uint32_t>(a.args.size()));
  for (const Term& t : a.args) PutTerm(t);
}

void WireEncoder::PutRule(const Rule& r) {
  PutU8(r.head_deletes ? 1 : 0);
  PutAtom(r.head);
  PutU32(static_cast<uint32_t>(r.body.size()));
  for (const Atom& a : r.body) PutAtom(a);
}

void WireEncoder::PutRelationDecl(const RelationDecl& d) {
  PutString(d.relation);
  PutString(d.peer);
  PutU8(static_cast<uint8_t>(d.kind));
  PutU32(static_cast<uint32_t>(d.columns.size()));
  for (const ColumnSpec& col : d.columns) {
    PutString(col.name);
    PutU8(static_cast<uint8_t>(col.type));
  }
}

void WireEncoder::PutDelegation(const Delegation& d) {
  PutString(d.origin_peer);
  PutString(d.target_peer);
  PutU64(d.origin_rule_hash);
  PutRule(d.rule);
}

void WireEncoder::PutDerivedDelta(const DerivedDelta& d) {
  PutString(d.target_peer);
  PutString(d.relation);
  PutU64(d.base_version);
  PutU64(d.version);
  PutU8(d.snapshot ? 1 : 0);
  PutU32(static_cast<uint32_t>(d.inserts.size()));
  for (const Tuple& t : d.inserts) PutTuple(t);
  PutU32(static_cast<uint32_t>(d.deletes.size()));
  for (const Tuple& t : d.deletes) PutTuple(t);
}

void WireEncoder::PutMessage(const Message& m) {
  PutU8(static_cast<uint8_t>(m.type));
  switch (m.type) {
    case MessageType::kFactInserts:
    case MessageType::kFactDeletes:
      PutU32(static_cast<uint32_t>(m.facts.size()));
      for (const Fact& f : m.facts) PutFact(f);
      break;
    case MessageType::kDelegationInstall:
      PutDelegation(m.delegation);
      break;
    case MessageType::kDelegationRetract:
      PutU64(m.delegation_key);
      break;
    case MessageType::kHello:
    case MessageType::kResyncRequest:
      PutString(m.text);
      break;
    case MessageType::kDerivedDelta:
      PutDerivedDelta(m.delta);
      break;
  }
}

void WireEncoder::PutEnvelope(const Envelope& e) {
  buf_.append(kMagic, sizeof(kMagic));
  PutU16(kVersion);
  PutString(e.from);
  PutString(e.to);
  PutU64(e.seq);
  PutMessage(e.message);
}

Status WireDecoder::Need(size_t n) const {
  if (data_.size() - pos_ < n) {
    return Status::OutOfRange(StrFormat(
        "wire decode: need %zu bytes, have %zu", n, data_.size() - pos_));
  }
  return Status::OK();
}

Result<uint8_t> WireDecoder::GetU8() {
  WDL_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

Result<uint16_t> WireDecoder::GetU16() {
  WDL_RETURN_IF_ERROR(Need(2));
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<uint16_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

Result<uint32_t> WireDecoder::GetU32() {
  WDL_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

Result<uint64_t> WireDecoder::GetU64() {
  WDL_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

Result<double> WireDecoder::GetDouble() {
  WDL_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<uint32_t> WireDecoder::GetCount(size_t min_element_bytes,
                                       const char* what) {
  WDL_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  if (n > kMaxCount ||
      static_cast<uint64_t>(n) * min_element_bytes > remaining()) {
    return Status::ParseError(StrFormat(
        "%s count %u exceeds frame (%zu bytes remaining)", what, n,
        remaining()));
  }
  return n;
}

Result<std::string> WireDecoder::GetString() {
  WDL_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  WDL_RETURN_IF_ERROR(Need(len));
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

Result<Value> WireDecoder::GetValue() {
  WDL_ASSIGN_OR_RETURN(uint8_t tag, GetU8());
  switch (static_cast<ValueKind>(tag)) {
    case ValueKind::kInt: {
      WDL_ASSIGN_OR_RETURN(uint64_t v, GetU64());
      return Value::Int(static_cast<int64_t>(v));
    }
    case ValueKind::kDouble: {
      WDL_ASSIGN_OR_RETURN(double v, GetDouble());
      return Value::Double(v);
    }
    case ValueKind::kString: {
      WDL_ASSIGN_OR_RETURN(std::string s, GetString());
      return Value::String(std::move(s));
    }
    case ValueKind::kBlob: {
      WDL_ASSIGN_OR_RETURN(std::string s, GetString());
      return Value::MakeBlob(std::move(s));
    }
    default:
      return Status::ParseError(StrFormat("bad value tag %u", tag));
  }
}

Result<Tuple> WireDecoder::GetTuple() {
  WDL_ASSIGN_OR_RETURN(uint32_t n, GetCount(kMinValueBytes, "tuple arity"));
  Tuple t;
  t.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WDL_ASSIGN_OR_RETURN(Value v, GetValue());
    t.push_back(std::move(v));
  }
  return t;
}

Result<Fact> WireDecoder::GetFact() {
  Fact f;
  WDL_ASSIGN_OR_RETURN(f.relation, GetString());
  WDL_ASSIGN_OR_RETURN(f.peer, GetString());
  WDL_ASSIGN_OR_RETURN(f.args, GetTuple());
  return f;
}

Result<SymTerm> WireDecoder::GetSymTerm() {
  WDL_ASSIGN_OR_RETURN(uint8_t is_var, GetU8());
  WDL_ASSIGN_OR_RETURN(std::string text, GetString());
  if (is_var > 1) return Status::ParseError("bad symterm tag");
  return is_var ? SymTerm::Variable(std::move(text))
                : SymTerm::Name(std::move(text));
}

Result<Term> WireDecoder::GetTerm() {
  WDL_ASSIGN_OR_RETURN(uint8_t is_var, GetU8());
  if (is_var > 1) return Status::ParseError("bad term tag");
  if (is_var) {
    WDL_ASSIGN_OR_RETURN(std::string name, GetString());
    return Term::Variable(std::move(name));
  }
  WDL_ASSIGN_OR_RETURN(Value v, GetValue());
  return Term::Constant(std::move(v));
}

Result<Atom> WireDecoder::GetAtom() {
  Atom a;
  WDL_ASSIGN_OR_RETURN(uint8_t negated, GetU8());
  if (negated > 1) return Status::ParseError("bad atom negation tag");
  a.negated = negated != 0;
  WDL_ASSIGN_OR_RETURN(a.relation, GetSymTerm());
  WDL_ASSIGN_OR_RETURN(a.peer, GetSymTerm());
  WDL_ASSIGN_OR_RETURN(uint32_t n, GetCount(kMinTermBytes, "atom arity"));
  a.args.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WDL_ASSIGN_OR_RETURN(Term t, GetTerm());
    a.args.push_back(std::move(t));
  }
  return a;
}

Result<Rule> WireDecoder::GetRule() {
  Rule r;
  WDL_ASSIGN_OR_RETURN(uint8_t deletes, GetU8());
  if (deletes > 1) return Status::ParseError("bad rule deletion tag");
  r.head_deletes = deletes != 0;
  WDL_ASSIGN_OR_RETURN(r.head, GetAtom());
  WDL_ASSIGN_OR_RETURN(uint32_t n, GetCount(kMinAtomBytes, "rule body"));
  r.body.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WDL_ASSIGN_OR_RETURN(Atom a, GetAtom());
    r.body.push_back(std::move(a));
  }
  return r;
}

Result<RelationDecl> WireDecoder::GetRelationDecl() {
  RelationDecl d;
  WDL_ASSIGN_OR_RETURN(d.relation, GetString());
  WDL_ASSIGN_OR_RETURN(d.peer, GetString());
  WDL_ASSIGN_OR_RETURN(uint8_t kind, GetU8());
  if (kind > static_cast<uint8_t>(RelationKind::kIntensional)) {
    return Status::ParseError(StrFormat("bad relation kind %u", kind));
  }
  d.kind = static_cast<RelationKind>(kind);
  WDL_ASSIGN_OR_RETURN(uint32_t n,
                       GetCount(kMinColumnBytes, "declaration columns"));
  d.columns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ColumnSpec col;
    WDL_ASSIGN_OR_RETURN(col.name, GetString());
    WDL_ASSIGN_OR_RETURN(uint8_t type, GetU8());
    if (type > static_cast<uint8_t>(ValueKind::kAny)) {
      return Status::ParseError(StrFormat("bad column type %u", type));
    }
    col.type = static_cast<ValueKind>(type);
    d.columns.push_back(std::move(col));
  }
  return d;
}

Result<Delegation> WireDecoder::GetDelegation() {
  Delegation d;
  WDL_ASSIGN_OR_RETURN(d.origin_peer, GetString());
  WDL_ASSIGN_OR_RETURN(d.target_peer, GetString());
  WDL_ASSIGN_OR_RETURN(d.origin_rule_hash, GetU64());
  WDL_ASSIGN_OR_RETURN(d.rule, GetRule());
  return d;
}

Result<DerivedDelta> WireDecoder::GetDerivedDelta() {
  DerivedDelta d;
  WDL_ASSIGN_OR_RETURN(d.target_peer, GetString());
  WDL_ASSIGN_OR_RETURN(d.relation, GetString());
  WDL_ASSIGN_OR_RETURN(d.base_version, GetU64());
  WDL_ASSIGN_OR_RETURN(d.version, GetU64());
  WDL_ASSIGN_OR_RETURN(uint8_t snapshot, GetU8());
  if (snapshot > 1) return Status::ParseError("bad delta snapshot tag");
  d.snapshot = snapshot != 0;
  if (!d.snapshot && d.version < d.base_version) {
    return Status::ParseError("delta versions not increasing");
  }
  // version == base_version is the version-only stream heartbeat: it
  // carries no payload and only lets the receiver detect a silent gap.
  if (!d.snapshot && d.version == d.base_version) {
    WDL_ASSIGN_OR_RETURN(uint32_t n_ins, GetU32());
    WDL_ASSIGN_OR_RETURN(uint32_t n_del, GetU32());
    if (n_ins != 0 || n_del != 0) {
      return Status::ParseError("heartbeat delta carries payload");
    }
    return d;
  }
  WDL_ASSIGN_OR_RETURN(uint32_t n_ins,
                       GetCount(kMinTupleBytes, "delta inserts"));
  d.inserts.reserve(n_ins);
  for (uint32_t i = 0; i < n_ins; ++i) {
    WDL_ASSIGN_OR_RETURN(Tuple t, GetTuple());
    d.inserts.push_back(std::move(t));
  }
  WDL_ASSIGN_OR_RETURN(uint32_t n_del,
                       GetCount(kMinTupleBytes, "delta deletes"));
  d.deletes.reserve(n_del);
  for (uint32_t i = 0; i < n_del; ++i) {
    WDL_ASSIGN_OR_RETURN(Tuple t, GetTuple());
    d.deletes.push_back(std::move(t));
  }
  return d;
}

Result<Message> WireDecoder::GetMessage() {
  Message m;
  WDL_ASSIGN_OR_RETURN(uint8_t type, GetU8());
  if (type == kRetiredFullSliceType || type == kRetiredForgetNoticeType) {
    return Status::ParseError(
        StrFormat("message type %u is retired and not supported", type));
  }
  if (type > static_cast<uint8_t>(MessageType::kResyncRequest)) {
    return Status::ParseError(StrFormat("bad message type %u", type));
  }
  m.type = static_cast<MessageType>(type);
  switch (m.type) {
    case MessageType::kFactInserts:
    case MessageType::kFactDeletes: {
      WDL_ASSIGN_OR_RETURN(uint32_t n, GetCount(kMinFactBytes, "fact batch"));
      m.facts.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        WDL_ASSIGN_OR_RETURN(Fact f, GetFact());
        m.facts.push_back(std::move(f));
      }
      break;
    }
    case MessageType::kDelegationInstall: {
      WDL_ASSIGN_OR_RETURN(m.delegation, GetDelegation());
      break;
    }
    case MessageType::kDelegationRetract: {
      WDL_ASSIGN_OR_RETURN(m.delegation_key, GetU64());
      break;
    }
    case MessageType::kHello:
    case MessageType::kResyncRequest: {
      WDL_ASSIGN_OR_RETURN(m.text, GetString());
      break;
    }
    case MessageType::kDerivedDelta: {
      WDL_ASSIGN_OR_RETURN(m.delta, GetDerivedDelta());
      break;
    }
  }
  return m;
}

Result<Envelope> WireDecoder::GetEnvelope() {
  WDL_RETURN_IF_ERROR(Need(sizeof(kMagic)));
  if (std::memcmp(data_.data() + pos_, kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("bad wire magic");
  }
  pos_ += sizeof(kMagic);
  WDL_ASSIGN_OR_RETURN(uint16_t version, GetU16());
  if (version != kVersion) {
    return Status::ParseError(StrFormat("unsupported wire version %u",
                                        version));
  }
  Envelope e;
  WDL_ASSIGN_OR_RETURN(e.from, GetString());
  WDL_ASSIGN_OR_RETURN(e.to, GetString());
  WDL_ASSIGN_OR_RETURN(e.seq, GetU64());
  WDL_ASSIGN_OR_RETURN(e.message, GetMessage());
  return e;
}

std::string EncodeEnvelope(const Envelope& e) {
  WireEncoder enc;
  enc.PutEnvelope(e);
  return std::move(enc.TakeBuffer());
}

Result<Envelope> DecodeEnvelope(std::string_view bytes) {
  WireDecoder dec(bytes);
  WDL_ASSIGN_OR_RETURN(Envelope e, dec.GetEnvelope());
  if (!dec.AtEnd()) {
    return Status::ParseError("trailing bytes after envelope");
  }
  return e;
}

}  // namespace wdl
