#include "durability/durability.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "base/logging.h"
#include "base/string_util.h"
#include "net/wire.h"

namespace wdl {

namespace {

constexpr char kSnapshotPrefix[] = "snap-";
constexpr char kSnapshotSuffix[] = ".wdls";
constexpr char kWalPrefix[] = "wal-";
constexpr char kWalSuffix[] = ".log";

/// mkdir -p: an operator's --data-dir should not require pre-created
/// parents.
Status EnsureDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  if (errno == ENOENT) {
    size_t slash = dir.find_last_of('/');
    if (slash != std::string::npos && slash > 0) {
      WDL_RETURN_IF_ERROR(EnsureDir(dir.substr(0, slash)));
      if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
        return Status::OK();
      }
    }
  }
  return Status::Unavailable("mkdir " + dir + ": " + std::strerror(errno));
}

/// Parses "<prefix><number><suffix>" into the number; nullopt when the
/// name has a different shape.
bool ParseGeneration(const std::string& name, const char* prefix,
                     const char* suffix, uint64_t* generation) {
  size_t plen = std::strlen(prefix);
  size_t slen = std::strlen(suffix);
  if (name.size() <= plen + slen) return false;
  if (name.compare(0, plen, prefix) != 0) return false;
  if (name.compare(name.size() - slen, slen, suffix) != 0) return false;
  std::string digits = name.substr(plen, name.size() - plen - slen);
  if (digits.empty()) return false;
  uint64_t g = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    g = g * 10 + static_cast<uint64_t>(c - '0');
  }
  *generation = g;
  return true;
}

Result<std::vector<uint64_t>> ListGenerations(const std::string& dir,
                                              const char* prefix,
                                              const char* suffix) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Status::Unavailable("opendir " + dir + ": " + std::strerror(errno));
  }
  std::vector<uint64_t> out;
  while (struct dirent* ent = ::readdir(d)) {
    uint64_t g = 0;
    if (ParseGeneration(ent->d_name, prefix, suffix, &g)) out.push_back(g);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

void RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    WDL_LOG(Warning) << "durability: could not remove " << path << ": "
                  << std::strerror(errno);
  }
}

}  // namespace

const char* WalRecordTypeToString(WalRecordType type) {
  switch (type) {
    case WalRecordType::kEnvelope:
      return "envelope";
    case WalRecordType::kLocalFactInsert:
      return "local-fact-insert";
    case WalRecordType::kLocalFactDelete:
      return "local-fact-delete";
    case WalRecordType::kLocalDecl:
      return "local-decl";
    case WalRecordType::kLocalRuleAdd:
      return "local-rule-add";
    case WalRecordType::kLocalRuleRemove:
      return "local-rule-remove";
    case WalRecordType::kStageOutbound:
      return "stage-outbound";
    case WalRecordType::kDelegationApprove:
      return "delegation-approve";
    case WalRecordType::kDelegationReject:
      return "delegation-reject";
  }
  return "unknown";
}

std::string EncodeWalRecord(const WalRecord& record) {
  WireEncoder enc;
  enc.PutU8(static_cast<uint8_t>(record.type));
  switch (record.type) {
    case WalRecordType::kEnvelope:
      enc.PutEnvelope(record.envelope);
      break;
    case WalRecordType::kLocalFactInsert:
    case WalRecordType::kLocalFactDelete:
      enc.PutFact(record.fact);
      break;
    case WalRecordType::kLocalDecl:
      enc.PutRelationDecl(record.decl);
      break;
    case WalRecordType::kLocalRuleAdd:
      enc.PutU64(record.id);
      enc.PutRule(record.rule);
      break;
    case WalRecordType::kLocalRuleRemove:
    case WalRecordType::kDelegationApprove:
    case WalRecordType::kDelegationReject:
      enc.PutU64(record.id);
      break;
    case WalRecordType::kStageOutbound:
      enc.PutU32(static_cast<uint32_t>(record.shipped_deltas.size()));
      for (const DerivedDelta& d : record.shipped_deltas) {
        enc.PutDerivedDelta(d);
      }
      enc.PutU32(static_cast<uint32_t>(record.shipped_delegations.size()));
      for (const Delegation& d : record.shipped_delegations) {
        enc.PutDelegation(d);
      }
      enc.PutU32(
          static_cast<uint32_t>(record.shipped_delegation_retracts.size()));
      for (uint64_t key : record.shipped_delegation_retracts) {
        enc.PutU64(key);
      }
      break;
  }
  return enc.TakeBuffer();
}

Result<WalRecord> DecodeWalRecord(std::string_view bytes) {
  WireDecoder dec(bytes);
  WalRecord record;
  WDL_ASSIGN_OR_RETURN(uint8_t type, dec.GetU8());
  if (type < 1 || type > 9) {
    return Status::InvalidArgument("unknown WAL record type " +
                                   std::to_string(type));
  }
  record.type = static_cast<WalRecordType>(type);
  switch (record.type) {
    case WalRecordType::kEnvelope: {
      WDL_ASSIGN_OR_RETURN(record.envelope, dec.GetEnvelope());
      break;
    }
    case WalRecordType::kLocalFactInsert:
    case WalRecordType::kLocalFactDelete: {
      WDL_ASSIGN_OR_RETURN(record.fact, dec.GetFact());
      break;
    }
    case WalRecordType::kLocalDecl: {
      WDL_ASSIGN_OR_RETURN(record.decl, dec.GetRelationDecl());
      break;
    }
    case WalRecordType::kLocalRuleAdd: {
      WDL_ASSIGN_OR_RETURN(record.id, dec.GetU64());
      WDL_ASSIGN_OR_RETURN(record.rule, dec.GetRule());
      break;
    }
    case WalRecordType::kLocalRuleRemove:
    case WalRecordType::kDelegationApprove:
    case WalRecordType::kDelegationReject: {
      WDL_ASSIGN_OR_RETURN(record.id, dec.GetU64());
      break;
    }
    case WalRecordType::kStageOutbound: {
      WDL_ASSIGN_OR_RETURN(uint32_t ndeltas, dec.GetU32());
      for (uint32_t i = 0; i < ndeltas; ++i) {
        WDL_ASSIGN_OR_RETURN(DerivedDelta d, dec.GetDerivedDelta());
        record.shipped_deltas.push_back(std::move(d));
      }
      WDL_ASSIGN_OR_RETURN(uint32_t ndels, dec.GetU32());
      for (uint32_t i = 0; i < ndels; ++i) {
        WDL_ASSIGN_OR_RETURN(Delegation d, dec.GetDelegation());
        record.shipped_delegations.push_back(std::move(d));
      }
      WDL_ASSIGN_OR_RETURN(uint32_t nretracts, dec.GetU32());
      for (uint32_t i = 0; i < nretracts; ++i) {
        WDL_ASSIGN_OR_RETURN(uint64_t key, dec.GetU64());
        record.shipped_delegation_retracts.push_back(key);
      }
      break;
    }
  }
  if (!dec.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after WAL record");
  }
  return record;
}

std::string PeerDurability::WalPath() const {
  return options_.dir + "/" + kWalPrefix + std::to_string(generation_) +
         kWalSuffix;
}

std::string PeerDurability::SnapshotPath(uint64_t generation) const {
  return options_.dir + "/" + kSnapshotPrefix + std::to_string(generation) +
         kSnapshotSuffix;
}

Result<std::unique_ptr<PeerDurability>> PeerDurability::Open(
    DurabilityOptions options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("durability dir must not be empty");
  }
  WDL_RETURN_IF_ERROR(EnsureDir(options.dir));
  auto pd = std::unique_ptr<PeerDurability>(
      new PeerDurability(std::move(options)));

  // Pick the newest snapshot that decodes cleanly; a snapshot that
  // fails its CRC (a crash mid-rotation cannot cause this — tmp+rename
  // is atomic — but bit rot can) falls back a generation.
  WDL_ASSIGN_OR_RETURN(
      std::vector<uint64_t> snap_gens,
      ListGenerations(pd->options_.dir, kSnapshotPrefix, kSnapshotSuffix));
  for (auto it = snap_gens.rbegin(); it != snap_gens.rend(); ++it) {
    Result<std::string> bytes = ReadEntireFile(pd->SnapshotPath(*it));
    if (!bytes.ok()) {
      WDL_LOG(Warning) << "durability: unreadable snapshot generation " << *it
                    << ": " << bytes.status().ToString();
      continue;
    }
    Result<SnapshotData> snap = DecodeSnapshot(*bytes);
    if (!snap.ok()) {
      WDL_LOG(Warning) << "durability: invalid snapshot generation " << *it
                    << ": " << snap.status().ToString();
      continue;
    }
    pd->generation_ = *it;
    pd->snapshot_ = std::move(*snap);
    pd->counters_.snapshot_recovered = true;
    break;
  }

  // Read this generation's WAL (generation 0 when no snapshot exists).
  // Every record that passed its CRC must decode before anything on
  // disk changes: a CRC-valid record that does not decode means a
  // format change or a writer bug, not a torn write, and skipping it
  // (and everything after it) would silently drop durable state. Fail
  // recovery instead and leave the file exactly as found.
  WDL_ASSIGN_OR_RETURN(WalReadResult wal, ReadWalFile(pd->WalPath()));
  for (size_t i = 0; i < wal.payloads.size(); ++i) {
    Result<WalRecord> record = DecodeWalRecord(wal.payloads[i]);
    if (!record.ok()) {
      return Status::FailedPrecondition(StrFormat(
          "durability: WAL record %zu of %s (byte offset %llu) passed its "
          "CRC but does not decode: %s",
          i, pd->WalPath().c_str(),
          static_cast<unsigned long long>(wal.offsets[i]),
          record.status().ToString().c_str()));
    }
    pd->recovered_records_.push_back(std::move(*record));
  }
  // A torn tail — a final frame cut short or failing its CRC — is what
  // a crash mid-append leaves; truncate it so appends resume after the
  // last valid record.
  if (wal.torn_tail) {
    WDL_LOG(Warning) << "durability: truncating torn WAL tail ("
                  << wal.dropped_bytes << " bytes) in " << pd->WalPath();
    WDL_RETURN_IF_ERROR(TruncateFile(pd->WalPath(), wal.valid_bytes));
    pd->counters_.torn_tail_truncated = true;
    pd->counters_.torn_bytes_dropped = wal.dropped_bytes;
  }
  pd->records_in_log_ = pd->recovered_records_.size();
  pd->counters_.wal_records_recovered = pd->recovered_records_.size();
  pd->counters_.generation = pd->generation_;

  // Older generations are garbage once a newer snapshot is chosen; a
  // crash during a previous rotation can leave them behind.
  for (uint64_t g : snap_gens) {
    if (g < pd->generation_) RemoveFileIfExists(pd->SnapshotPath(g));
  }
  WDL_ASSIGN_OR_RETURN(
      std::vector<uint64_t> wal_gens,
      ListGenerations(pd->options_.dir, kWalPrefix, kWalSuffix));
  for (uint64_t g : wal_gens) {
    if (g != pd->generation_) {
      RemoveFileIfExists(pd->options_.dir + "/" + kWalPrefix +
                         std::to_string(g) + kWalSuffix);
    }
  }

  WDL_ASSIGN_OR_RETURN(pd->writer_, WalWriter::Open(pd->WalPath()));
  return pd;
}

void PeerDurability::FinishRecovery() {
  snapshot_.reset();
  recovered_records_.clear();
  recovered_records_.shrink_to_fit();
}

Status PeerDurability::Append(const WalRecord& record) {
  std::string payload = EncodeWalRecord(record);
  WDL_RETURN_IF_ERROR(writer_->Append(payload));
  ++records_in_log_;
  ++counters_.records_appended;
  counters_.bytes_appended += payload.size() + 8;
  if (options_.fsync_policy == FsyncPolicy::kAlways) {
    WDL_RETURN_IF_ERROR(writer_->Sync());
    ++counters_.fsyncs;
  } else if (options_.fsync_policy == FsyncPolicy::kBatch) {
    batch_dirty_ = true;
  }
  return Status::OK();
}

Status PeerDurability::EndBatch() {
  if (!batch_dirty_) return Status::OK();
  batch_dirty_ = false;
  WDL_RETURN_IF_ERROR(writer_->Sync());
  ++counters_.fsyncs;
  return Status::OK();
}

bool PeerDurability::ShouldSnapshot() const {
  return options_.snapshot_interval_records > 0 &&
         records_in_log_ >= options_.snapshot_interval_records;
}

Status PeerDurability::WriteSnapshot(const SnapshotData& snap) {
  uint64_t next = generation_ + 1;
  std::string bytes = EncodeSnapshot(snap);
  WDL_RETURN_IF_ERROR(AtomicWriteFile(SnapshotPath(next), bytes));
  ++counters_.snapshots_written;
  counters_.snapshot_bytes += bytes.size();

  // The new snapshot is durable; switch generations. If the process
  // dies between the rename above and the writes below, recovery finds
  // snap-<next> plus the old log — the log's records are all covered
  // by the snapshot and replaying them is idempotent, but the stale
  // log is keyed to the old generation, so it is simply deleted at the
  // next Open.
  std::string old_wal = WalPath();
  uint64_t old_generation = generation_;
  generation_ = next;
  counters_.generation = next;
  WDL_ASSIGN_OR_RETURN(writer_, WalWriter::Open(WalPath()));
  records_in_log_ = 0;
  batch_dirty_ = false;
  RemoveFileIfExists(old_wal);
  RemoveFileIfExists(SnapshotPath(old_generation));
  return Status::OK();
}

}  // namespace wdl
