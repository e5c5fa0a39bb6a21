#include "runtime/system.h"

#include <cassert>

#include "base/logging.h"

namespace wdl {

System::System(SystemOptions options)
    : options_(options),
      network_(std::make_unique<SimulatedNetwork>(options.network_seed,
                                                  options.default_link)) {
  simulated_ = static_cast<SimulatedNetwork*>(network_.get());
}

System::System(std::unique_ptr<Network> network, SystemOptions options)
    : options_(options), network_(std::move(network)) {}

SimulatedNetwork& System::network() {
  assert(simulated_ != nullptr && "system runs on a non-simulated network");
  return *simulated_;
}

const SimulatedNetwork& System::network() const {
  assert(simulated_ != nullptr && "system runs on a non-simulated network");
  return *simulated_;
}

Peer* System::CreatePeer(const std::string& name, PeerOptions options) {
  if (options.durability.dir.empty() && !options_.durability_root.empty()) {
    options.durability = options_.durability;
    options.durability.dir = options_.durability_root + "/" + name;
  }
  auto [it, inserted] =
      peers_.emplace(name, std::make_unique<Peer>(name, options));
  Peer* peer = it->second.get();
  if (!inserted) {
    WDL_LOG(Warning) << "peer " << name << " already exists";
    return peer;
  }
  peer->set_work_listener([this, peer] { ready_.insert(peer); });
  // Durable recovery may already have given the peer an engine with
  // work, before the listener above existed.
  if (peer->HasPendingWork()) ready_.insert(peer);
  return peer;
}

size_t System::MaterializedPeerCount() const {
  size_t n = 0;
  for (const auto& [name, peer] : peers_) {
    if (peer->has_engine()) ++n;
  }
  return n;
}

size_t System::ApproxPeerBytes(const std::string& name) const {
  const Peer* peer = GetPeer(name);
  if (peer == nullptr) return 0;
  // Registry cost: one map node (rb-tree: three pointers + color) with
  // its key string and unique_ptr, plus the Peer's own bookkeeping.
  size_t bytes = 4 * sizeof(void*) + sizeof(std::string) +
                 sizeof(std::unique_ptr<Peer>);
  if (name.capacity() > sizeof(std::string)) bytes += name.capacity() + 1;
  return bytes + peer->ApproxIdleBytes();
}

Peer* System::GetPeer(const std::string& name) {
  auto it = peers_.find(name);
  return it == peers_.end() ? nullptr : it->second.get();
}

const Peer* System::GetPeer(const std::string& name) const {
  auto it = peers_.find(name);
  return it == peers_.end() ? nullptr : it->second.get();
}

std::vector<std::string> System::PeerNames() const {
  std::vector<std::string> names;
  names.reserve(peers_.size());
  for (const auto& [name, peer] : peers_) names.push_back(name);
  return names;
}

Status System::AttachWrapper(std::unique_ptr<Wrapper> wrapper) {
  Peer* peer = GetPeer(wrapper->peer_name());
  if (peer == nullptr) {
    return Status::NotFound("wrapper's peer " + wrapper->peer_name() +
                            " does not exist");
  }
  WDL_RETURN_IF_ERROR(wrapper->Setup(peer));
  wrappers_.push_back(std::move(wrapper));
  return Status::OK();
}

RoundReport System::RunRound() {
  RoundReport report;
  now_ += 1.0;
  report.round = ++rounds_run_;

  // Deliver everything due by now.
  for (Envelope& e : network_->DeliverDue(now_)) {
    Peer* target = GetPeer(e.to);
    if (target == nullptr) {
      WDL_LOG(Warning) << "dropping envelope to unknown peer: "
                       << e.ToString();
      continue;
    }
    target->HandleEnvelope(e);
    ++report.envelopes_delivered;
  }

  // Link resets (an asynchronous transport lost and/or re-established
  // a connection): every local peer re-establishes its streams with
  // the affected remote through the resync machinery.
  // (Engine-less peers have no streams to heal — NoteLinkReset no-ops
  // on them without materializing anything.)
  for (const std::string& reset : network_->TakePeerResets()) {
    for (auto& [name, peer] : peers_) {
      if (name != reset) peer->NoteLinkReset(reset);
    }
  }

  // Wrappers move external data in/out before the stages.
  SyncWrappers();

  // Run a stage at every peer with pending work, then submit their
  // output. Every such peer is in the ready set, which iterates in name
  // order; a stage that leaves work behind puts its peer back for the
  // next round.
  uint64_t bytes_before = network_->StatsSnapshot().bytes_sent;
  std::vector<Peer*> pending;
  for (Peer* peer : ready_) {
    if (peer->HasPendingWork()) pending.push_back(peer);
  }
  ready_.clear();
  report.stages_run = pending.size();
  std::vector<std::vector<Envelope>> stage_out(pending.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    stage_out[i] = pending[i]->RunStage();
  }
  for (std::vector<Envelope>& envs : stage_out) {
    for (Envelope& e : envs) {
      switch (e.message.type) {
        case MessageType::kDerivedDelta:
          ++report.delta_messages;
          report.delta_tuples_sent += e.message.delta.inserts.size() +
                                      e.message.delta.deletes.size();
          break;
        case MessageType::kResyncRequest:
          ++report.resync_requests;
          break;
        default:
          break;
      }
      Status st = network_->Submit(std::move(e), now_);
      if (!st.ok()) WDL_LOG(Error) << "submit failed: " << st;
      ++report.envelopes_sent;
    }
  }
  // Periodic stream heartbeats: emitted outside the stage machinery (a
  // heartbeat is pure observation — it neither changes engine state nor
  // marks peers dirty), so a converged system stays quiescent between
  // intervals and RunUntilQuiescent still terminates.
  if (options_.heartbeat_interval_rounds > 0 &&
      rounds_run_ % options_.heartbeat_interval_rounds == 0) {
    for (auto& [name, peer] : peers_) {
      for (Envelope& e : peer->MakeHeartbeats()) {
        ++report.heartbeats_sent;
        Status st = network_->Submit(std::move(e), now_);
        if (!st.ok()) WDL_LOG(Error) << "heartbeat submit failed: " << st;
        ++report.envelopes_sent;
      }
    }
  }
  report.bytes_sent = network_->StatsSnapshot().bytes_sent - bytes_before;
  return report;
}

bool System::IsQuiescent() const {
  if (network_->HasInFlight()) return false;
  for (const Peer* peer : ready_) {
    if (peer->HasPendingWork()) return false;
  }
  return true;
}

void System::SyncWrappers() {
  for (auto& wrapper : wrappers_) {
    Peer* peer = GetPeer(wrapper->peer_name());
    if (peer == nullptr) continue;
    Status st = wrapper->Sync(peer);
    if (!st.ok()) {
      WDL_LOG(Error) << "wrapper sync failed for " << wrapper->peer_name()
                     << ": " << st;
    }
  }
}

Result<int> System::RunUntilQuiescent(int max_rounds) {
  const int start = rounds_run_;
  for (int i = 0; i < max_rounds; ++i) {
    if (IsQuiescent()) {
      // The engines are done, but the last stage may have materialized
      // tuples a wrapper still has to drain to its external service —
      // and that drain may in turn create engine work.
      SyncWrappers();
      if (IsQuiescent()) return rounds_run_ - start;
    }
    RunRound();
  }
  if (IsQuiescent()) return rounds_run_ - start;
  return Status::FailedPrecondition(
      "system did not quiesce within " + std::to_string(max_rounds) +
      " rounds");
}

}  // namespace wdl
