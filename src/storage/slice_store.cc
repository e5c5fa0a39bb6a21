#include "storage/slice_store.h"

namespace wdl {

SliceStore::Gate SliceStore::CheckDelta(const std::string& relation,
                                        const std::string& sender,
                                        uint64_t base_version,
                                        uint64_t version) const {
  // A well-formed delta moves the stream forward; anything else is a
  // corrupt or hostile frame and must not commit the version backwards.
  if (version <= base_version) return Gate::kStale;
  uint64_t current = StreamVersion(relation, sender);
  if (base_version == current) return Gate::kApply;
  if (version <= current) return Gate::kStale;
  return Gate::kGap;
}

SliceStore::Gate SliceStore::CheckSnapshot(const std::string& relation,
                                           const std::string& sender,
                                           uint64_t version) const {
  // A snapshot carries the full slice, so it may jump the stream
  // forward over any number of lost updates; only going backward in
  // time (a reordered old snapshot) would roll back newer state.
  return version >= StreamVersion(relation, sender) ? Gate::kApply
                                                    : Gate::kStale;
}

void SliceStore::CommitVersion(const std::string& relation,
                               const std::string& sender,
                               uint64_t version) {
  streams_[relation][sender].version = version;
}

bool SliceStore::ReplaceSlice(const std::string& relation,
                              const std::string& sender, TupleSet slice,
                              std::vector<Tuple>* gained,
                              std::vector<Tuple>* lost) {
  Stream& stream = streams_[relation][sender];
  if (stream.slice == slice) return false;
  for (const Tuple& t : stream.slice) {
    if (!slice.count(t) && DropSupport(relation, t) && lost != nullptr) {
      lost->push_back(t);
    }
  }
  for (const Tuple& t : slice) {
    if (!stream.slice.count(t) && AddSupport(relation, t) &&
        gained != nullptr) {
      gained->push_back(t);
    }
  }
  stream.slice = std::move(slice);
  return true;
}

bool SliceStore::ApplySnapshot(const std::string& relation,
                               const std::string& sender, TupleSet slice,
                               uint64_t version, std::vector<Tuple>* gained,
                               std::vector<Tuple>* lost) {
  bool changed = ReplaceSlice(relation, sender, std::move(slice), gained, lost);
  streams_[relation][sender].version = version;
  return changed;
}

bool SliceStore::ApplyDelta(const std::string& relation,
                            const std::string& sender,
                            std::vector<Tuple> inserts,
                            const std::vector<Tuple>& deletes,
                            uint64_t version, std::vector<Tuple>* gained,
                            std::vector<Tuple>* lost) {
  Stream& stream = streams_[relation][sender];
  bool changed = false;
  for (Tuple& t : inserts) {
    auto [it, inserted] = stream.slice.insert(std::move(t));
    if (inserted) {
      if (AddSupport(relation, *it) && gained != nullptr) {
        gained->push_back(*it);
      }
      changed = true;
    }
  }
  for (const Tuple& t : deletes) {
    if (stream.slice.erase(t) > 0) {
      if (DropSupport(relation, t) && lost != nullptr) lost->push_back(t);
      changed = true;
    }
  }
  stream.version = version;
  return changed;
}

std::vector<std::string> SliceStore::RelationsFromSender(
    const std::string& sender) const {
  std::vector<std::string> out;
  for (const auto& [relation, senders] : streams_) {
    if (senders.count(sender)) out.push_back(relation);
  }
  return out;
}

void SliceStore::RestoreStream(const std::string& relation,
                               const std::string& sender, uint64_t version,
                               TupleSet slice) {
  Stream& stream = streams_[relation][sender];
  for (const Tuple& t : stream.slice) DropSupport(relation, t);
  for (const Tuple& t : slice) AddSupport(relation, t);
  stream.slice = std::move(slice);
  stream.version = version;
}

void SliceStore::ResetStreamVersions(const std::string& sender) {
  for (auto& [relation, senders] : streams_) {
    auto it = senders.find(sender);
    if (it != senders.end()) it->second.version = 0;
  }
}

uint64_t SliceStore::StreamVersion(const std::string& relation,
                                   const std::string& sender) const {
  auto rel_it = streams_.find(relation);
  if (rel_it == streams_.end()) return 0;
  auto it = rel_it->second.find(sender);
  return it == rel_it->second.end() ? 0 : it->second.version;
}

size_t SliceStore::ContributorCount(const std::string& relation) const {
  auto rel_it = streams_.find(relation);
  if (rel_it == streams_.end()) return 0;
  size_t n = 0;
  for (const auto& [sender, stream] : rel_it->second) {
    if (!stream.slice.empty()) ++n;
  }
  return n;
}

uint32_t SliceStore::SupportCount(const std::string& relation,
                                  const Tuple& tuple) const {
  auto rel_it = support_.find(relation);
  if (rel_it == support_.end()) return 0;
  auto it = rel_it->second.find(tuple);
  return it == rel_it->second.end() ? 0 : it->second;
}

const SliceStore::TupleSet* SliceStore::Slice(
    const std::string& relation, const std::string& sender) const {
  auto rel_it = streams_.find(relation);
  if (rel_it == streams_.end()) return nullptr;
  auto it = rel_it->second.find(sender);
  return it == rel_it->second.end() ? nullptr : &it->second.slice;
}

bool SliceStore::AddSupport(const std::string& relation,
                            const Tuple& tuple) {
  return ++support_[relation][tuple] == 1;
}

bool SliceStore::DropSupport(const std::string& relation,
                             const Tuple& tuple) {
  auto rel_it = support_.find(relation);
  if (rel_it == support_.end()) return false;
  auto it = rel_it->second.find(tuple);
  if (it == rel_it->second.end()) return false;
  if (--it->second == 0) {
    rel_it->second.erase(it);
    return true;
  }
  return false;
}

}  // namespace wdl
