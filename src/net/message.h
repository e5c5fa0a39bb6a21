#ifndef WDL_NET_MESSAGE_H_
#define WDL_NET_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ast/fact.h"
#include "engine/engine.h"

namespace wdl {

/// Wire message taxonomy: facts and contribution updates carry data,
/// delegation installs and retracts carry programs — the paper's step
/// 3: "the peer sends facts (updates) and rules (delegations) to other
/// peers". kHello is peer discovery. The values are the wire and WAL
/// encoding and never change; the decoder rejects the retired ones
/// below.
enum class MessageType : uint8_t {
  kFactInserts = 0,       // base-fact updates, persistent at receiver
  kFactDeletes = 1,       // base-fact deletions
  kDelegationInstall = 3, // install a residual rule at the receiver
  kDelegationRetract = 4, // retract a previously installed delegation
  kHello = 5,             // peer announcement (discovery)
  kDerivedDelta = 6,      // differential contribution update (DESIGN §5)
  kResyncRequest = 7,     // "re-send your contribution to <relation> in full"
};

/// Type bytes of retired messages. Never reused: a frame or WAL record
/// carrying one fails to decode. 2 carried a sender's whole
/// contribution (the full-slice protocol); 8 told a sender to forget
/// its stream into a dropped query scratch relation.
inline constexpr uint8_t kRetiredFullSliceType = 2;
inline constexpr uint8_t kRetiredForgetNoticeType = 8;

const char* MessageTypeToString(MessageType type);

/// One message. Exactly the payload fields for `type` are meaningful.
struct Message {
  MessageType type = MessageType::kHello;
  std::vector<Fact> facts;     // kFactInserts / kFactDeletes
  DerivedDelta delta;          // kDerivedDelta
  Delegation delegation;       // kDelegationInstall
  uint64_t delegation_key = 0; // kDelegationRetract
  /// kHello: peer name; kResyncRequest: relation.
  std::string text;

  static Message FactInserts(std::vector<Fact> facts);
  static Message FactDeletes(std::vector<Fact> facts);
  static Message MakeDerivedDelta(DerivedDelta delta);
  static Message ResyncRequest(std::string relation);
  static Message DelegationInstall(Delegation d);
  static Message DelegationRetract(uint64_t key);
  static Message Hello(std::string peer_name);

  std::string ToString() const;
};

/// A routed message: source and destination peer plus a per-sender
/// sequence number (used for deterministic tie-breaking in the
/// simulator and for debugging).
struct Envelope {
  std::string from;
  std::string to;
  uint64_t seq = 0;
  Message message;

  std::string ToString() const;
};

}  // namespace wdl

#endif  // WDL_NET_MESSAGE_H_
