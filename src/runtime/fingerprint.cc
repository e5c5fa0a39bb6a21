#include "runtime/fingerprint.h"

#include <algorithm>
#include <vector>

namespace wdl {

std::string PeerStateFingerprint(const Peer& peer) {
  std::string fp = "== " + peer.name() + "\n";
  if (!peer.has_engine()) {
    // A never-materialized peer logically holds the empty state; render
    // it directly instead of touching peer.engine(), which would
    // allocate 100k engines just to fingerprint an idle 100k-peer
    // system. Byte-identical to the rendering of an empty engine.
    fp += "rules of peer " + peer.name() + ":\n  (no rules)\n";
    return fp;
  }
  for (const std::string& rel : peer.engine().catalog().RelationNames()) {
    fp += peer.RenderRelation(rel);
  }
  std::vector<std::string> rules;
  for (const InstalledRule* ir : peer.engine().rules()) {
    std::string line = "  " + ir->rule.ToString();
    if (ir->delegation_key != 0) {
      line += "   (delegated by " + ir->origin_peer + ")";
    }
    rules.push_back(std::move(line));
  }
  std::sort(rules.begin(), rules.end());
  fp += "rules of peer " + peer.name() + ":\n";
  for (const std::string& line : rules) fp += line + "\n";
  if (rules.empty()) fp += "  (no rules)\n";
  return fp;
}

std::string GlobalStateFingerprint(const System& system) {
  std::string fp;
  for (const std::string& name : system.PeerNames()) {
    fp += PeerStateFingerprint(*system.GetPeer(name));
  }
  return fp;
}

}  // namespace wdl
