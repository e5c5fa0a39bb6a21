#ifndef WDL_NET_WIRE_H_
#define WDL_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.h"
#include "net/message.h"

namespace wdl {

/// Binary wire format, version 1.
///
/// Every envelope is framed as:
///   magic "WDLM" (4 bytes) | version u16 | payload...
/// Integers are little-endian fixed width; strings and blobs are u32
/// length + bytes; vectors are u32 count + elements. The format is
/// self-contained per envelope (no streaming state), so a transport can
/// deliver frames out of order. Decoding is fully bounds-checked and
/// never trusts lengths without verifying remaining input — messages
/// come from other peers.
///
/// The simulated network round-trips every envelope through this codec
/// so the format (and its byte accounting) is exercised by every test
/// and experiment, not just the wire unit tests.

/// Append-only encoder over a byte buffer.
class WireEncoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutDouble(double v);
  void PutString(std::string_view s);
  void PutValue(const Value& v);
  void PutTuple(const Tuple& t);
  void PutFact(const Fact& f);
  void PutSymTerm(const SymTerm& t);
  void PutTerm(const Term& t);
  void PutAtom(const Atom& a);
  void PutRule(const Rule& r);
  /// A relation declaration: the durable log's and snapshot's format.
  void PutRelationDecl(const RelationDecl& d);
  void PutDelegation(const Delegation& d);
  void PutDerivedDelta(const DerivedDelta& d);
  void PutMessage(const Message& m);
  void PutEnvelope(const Envelope& e);

  const std::string& buffer() const { return buf_; }
  std::string&& TakeBuffer() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked decoder over an input span.
class WireDecoder {
 public:
  explicit WireDecoder(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<Value> GetValue();
  Result<Tuple> GetTuple();
  Result<Fact> GetFact();
  Result<SymTerm> GetSymTerm();
  Result<Term> GetTerm();
  Result<Atom> GetAtom();
  Result<Rule> GetRule();
  /// Rejects a kind or column type outside its enum.
  Result<RelationDecl> GetRelationDecl();
  Result<Delegation> GetDelegation();
  Result<DerivedDelta> GetDerivedDelta();
  Result<Message> GetMessage();
  Result<Envelope> GetEnvelope();

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status Need(size_t n) const;
  /// Reads a u32 element count and validates it against the bytes that
  /// are actually left in the frame: every element of the collection
  /// being decoded occupies at least `min_element_bytes`, so any count
  /// exceeding remaining()/min_element_bytes is corrupt or hostile and
  /// fails here — before a reserve() or decode loop sized by it runs.
  Result<uint32_t> GetCount(size_t min_element_bytes, const char* what);
  std::string_view data_;
  size_t pos_ = 0;
};

/// Convenience: one-shot envelope (de)serialization.
std::string EncodeEnvelope(const Envelope& e);
Result<Envelope> DecodeEnvelope(std::string_view bytes);

}  // namespace wdl

#endif  // WDL_NET_WIRE_H_
