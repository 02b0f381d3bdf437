#include "datalog/index.h"

#include <algorithm>

#include "base/hash.h"

namespace rel {
namespace datalog {

namespace {
constexpr size_t kIndexSeed = 0x51ed;
}  // namespace

void HashIndex::Build(const ColumnArena* arena,
                      std::vector<size_t> key_positions) {
  arena_ = arena;
  built_id_ = arena->id();
  built_version_ = arena->version();
  keys_ = std::move(key_positions);
  built_size_ = arena->size();
  entries_.Build(arena->size(), [this](size_t row) { return RowKeyHash(row); });
}

bool HashIndex::Repair(const ColumnArena* arena) {
  RowChanges changes;
  if (!arena->ChangesSince(built_version_, built_size_, &changes)) {
    return false;
  }
  arena_ = arena;
  built_version_ = arena->version();
  built_size_ = arena->size();
  entries_.Repair(changes, [this](size_t row) { return RowKeyHash(row); });
  return true;
}

void HashIndex::Clear() {
  arena_ = nullptr;
  built_id_ = 0;
  built_version_ = 0;
  built_size_ = 0;
  entries_.Clear();
}

size_t HashIndex::KeyHash(const std::vector<Value>& key) const {
  size_t h = kIndexSeed;
  for (const Value& v : key) h = HashCombine(h, v.Hash());
  return h;
}

size_t HashIndex::RowKeyHash(size_t row) const {
  size_t h = kIndexSeed;
  for (size_t k : keys_) h = HashCombine(h, arena_->At(row, k).Hash());
  return h;
}

const HashIndex& IndexCache::Get(const std::string& pred, const Relation& rel,
                                 size_t arity,
                                 const std::vector<size_t>& key_positions,
                                 uint64_t* build_counter,
                                 uint64_t* repair_counter) {
  IndexEntry* entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry = &cache_[Key(pred, arity, key_positions)];
  }
  std::lock_guard<std::mutex> latch(entry->latch);
  HashIndex& index = entry->index;
  const ColumnArena* arena = rel.ArenaOfArity(arity);
  if (arena == nullptr) {
    // No rows of this arity: probes are no-ops on an unbuilt index. Reset
    // only an index that was actually built (its arity vanished between
    // evaluations of a shared cache); within one evaluation arenas never
    // disappear, so for a never-built index this path must stay write-free —
    // an unconditional Clear() would race with lock-free probes of the same
    // entry from concurrent tasks (e.g. rules probing a recursive predicate
    // whose extent is still empty in early rounds).
    if (index.built()) index.Clear();
    return index;
  }
  if (index.built() && index.built_id() == arena->id()) {
    if (index.built_version() == arena->version()) return index;
    if (index.Repair(arena)) {
      if (repair_counter) ++*repair_counter;
      return index;
    }
  }
  index.Build(arena, key_positions);
  if (build_counter) ++*build_counter;
  return index;
}

const joins::SortedColumns& IndexCache::GetSorted(
    const std::string& pred, const Relation& rel, size_t arity,
    const std::vector<size_t>& col_order, uint64_t* build_counter) {
  SortedEntry* entry_ptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    entry_ptr = &sorted_cache_[Key(pred, arity, col_order)];
  }
  std::lock_guard<std::mutex> latch(entry_ptr->latch);
  SortedEntry& entry = *entry_ptr;
  const ColumnArena* arena = rel.ArenaOfArity(arity);
  if (arena == nullptr) {
    if (entry.built && entry.data.rows != 0) {
      entry.built = false;
      entry.built_id = 0;
      entry.built_version = 0;
      entry.data = joins::SortedColumns{};
    }
    entry.built = true;
    entry.data.cols.resize(col_order.size());
    return entry.data;
  }
  if (entry.built && entry.built_id == arena->id() &&
      entry.built_version == arena->version()) {
    return entry.data;
  }

  entry.built_id = arena->id();
  entry.built_version = arena->version();
  entry.built = true;
  entry.data = joins::ToSortedColumns(*arena, col_order);
  if (build_counter) ++*build_counter;
  return entry.data;
}

}  // namespace datalog
}  // namespace rel
