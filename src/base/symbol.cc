#include "base/symbol.h"

#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

namespace wdl {
namespace {

struct Entry {
  std::string text;
  uint64_t hash;
};

// Entries live in fixed-size chunks that never move once published, so
// id -> entry resolution (str()/hash(), the evaluator's inner-loop
// path) is lock-free: two relaxed/acquire loads and an index. 4096
// entries/chunk x 65536 chunks bounds the table at ~268M symbols —
// unreachable in practice (interning is program identifiers, not data).
constexpr size_t kChunkShift = 12;
constexpr size_t kChunkSize = size_t{1} << kChunkShift;
constexpr size_t kChunkMask = kChunkSize - 1;
constexpr size_t kMaxChunks = size_t{1} << 16;

// Append-only intern table, shared by every peer in the process.
// Writers (Intern on a miss) take the mutex exclusively; Find takes it
// shared. Readers holding a valid Symbol never take it at all: the id
// they hold was published either by the same thread's Intern/Find
// (whose lock release/acquire orders the entry write before the read)
// or handed across a thread boundary whose own synchronization (e.g.
// a thread join or a mutex-guarded queue) carries the same
// happens-before edge.
struct Table {
  std::shared_mutex mu;
  std::unordered_map<std::string_view, uint32_t> ids;  // guarded by mu
  std::atomic<Entry*> chunks[kMaxChunks] = {};
  std::atomic<uint32_t> count{0};
};

Table& GlobalTable() {
  static Table* table = new Table();  // leaked: symbols outlive everything
  return *table;
}

const Entry& EntryFor(uint32_t id) {
  Entry* chunk =
      GlobalTable().chunks[id >> kChunkShift].load(std::memory_order_acquire);
  return chunk[id & kChunkMask];
}

const std::string& EmptyString() {
  static const std::string* empty = new std::string();
  return *empty;
}

}  // namespace

Symbol Symbol::Intern(std::string_view text) {
  Table& t = GlobalTable();
  {
    // Fast path: already interned (the common case after load time).
    std::shared_lock<std::shared_mutex> lock(t.mu);
    auto it = t.ids.find(text);
    if (it != t.ids.end()) return Symbol(it->second);
  }
  std::unique_lock<std::shared_mutex> lock(t.mu);
  auto it = t.ids.find(text);  // re-check: raced with another interner
  if (it != t.ids.end()) return Symbol(it->second);
  uint32_t id = t.count.load(std::memory_order_relaxed);
  size_t chunk_index = id >> kChunkShift;
  Entry* chunk = t.chunks[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Entry[kChunkSize];
    t.chunks[chunk_index].store(chunk, std::memory_order_release);
  }
  Entry& e = chunk[id & kChunkMask];
  e.text = std::string(text);
  e.hash = HashString(text);
  t.ids.emplace(std::string_view(e.text), id);
  t.count.store(id + 1, std::memory_order_release);
  return Symbol(id);
}

Symbol Symbol::Find(std::string_view text) {
  Table& t = GlobalTable();
  std::shared_lock<std::shared_mutex> lock(t.mu);
  auto it = t.ids.find(text);
  return it == t.ids.end() ? Symbol() : Symbol(it->second);
}

size_t Symbol::TableSizeForTesting() {
  return GlobalTable().count.load(std::memory_order_acquire);
}

const std::string& Symbol::str() const {
  if (!valid()) return EmptyString();
  return EntryFor(id_).text;
}

uint64_t Symbol::hash() const {
  if (!valid()) return HashString(std::string_view());
  return EntryFor(id_).hash;
}

}  // namespace wdl
