#include "net/message.h"

#include "base/string_util.h"

namespace wdl {

const char* MessageTypeToString(MessageType type) {
  switch (type) {
    case MessageType::kFactInserts: return "FactInserts";
    case MessageType::kFactDeletes: return "FactDeletes";
    case MessageType::kDelegationInstall: return "DelegationInstall";
    case MessageType::kDelegationRetract: return "DelegationRetract";
    case MessageType::kHello: return "Hello";
    case MessageType::kDerivedDelta: return "DerivedDelta";
    case MessageType::kResyncRequest: return "ResyncRequest";
  }
  return "?";
}

Message Message::FactInserts(std::vector<Fact> facts) {
  Message m;
  m.type = MessageType::kFactInserts;
  m.facts = std::move(facts);
  return m;
}

Message Message::FactDeletes(std::vector<Fact> facts) {
  Message m;
  m.type = MessageType::kFactDeletes;
  m.facts = std::move(facts);
  return m;
}

Message Message::MakeDerivedDelta(DerivedDelta delta) {
  Message m;
  m.type = MessageType::kDerivedDelta;
  m.delta = std::move(delta);
  return m;
}

Message Message::ResyncRequest(std::string relation) {
  Message m;
  m.type = MessageType::kResyncRequest;
  m.text = std::move(relation);
  return m;
}

Message Message::DelegationInstall(Delegation d) {
  Message m;
  m.type = MessageType::kDelegationInstall;
  m.delegation = std::move(d);
  return m;
}

Message Message::DelegationRetract(uint64_t key) {
  Message m;
  m.type = MessageType::kDelegationRetract;
  m.delegation_key = key;
  return m;
}

Message Message::Hello(std::string peer_name) {
  Message m;
  m.type = MessageType::kHello;
  m.text = std::move(peer_name);
  return m;
}

std::string Message::ToString() const {
  std::string out = MessageTypeToString(type);
  switch (type) {
    case MessageType::kFactInserts:
    case MessageType::kFactDeletes:
      out += StrFormat("(%zu facts)", facts.size());
      break;
    case MessageType::kDelegationInstall:
      out += "(";
      out += delegation.rule.ToString();
      out += ")";
      break;
    case MessageType::kDelegationRetract:
      out += StrFormat("(key=%llu)",
                       static_cast<unsigned long long>(delegation_key));
      break;
    case MessageType::kHello:
      out += "(" + text + ")";
      break;
    case MessageType::kDerivedDelta:
      out += StrFormat("(%s@%s, v%llu->%llu%s, +%zu/-%zu)",
                       delta.relation.c_str(), delta.target_peer.c_str(),
                       static_cast<unsigned long long>(delta.base_version),
                       static_cast<unsigned long long>(delta.version),
                       delta.snapshot ? " snapshot" : "",
                       delta.inserts.size(), delta.deletes.size());
      break;
    case MessageType::kResyncRequest:
      out += "(" + text + ")";
      break;
  }
  return out;
}

std::string Envelope::ToString() const {
  return StrFormat("[%s -> %s #%llu] ", from.c_str(), to.c_str(),
                   static_cast<unsigned long long>(seq)) +
         message.ToString();
}

}  // namespace wdl
