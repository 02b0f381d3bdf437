#include "base/row_journal.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace rel {

namespace {
constexpr size_t kMinJournal = 64;
constexpr uint32_t kAdded = 0xffffffffu;
}  // namespace

void EraseJournal::RecordErase(uint64_t version, uint32_t slot, size_t rows) {
  entries_.push_back(Entry{version, slot});
  const size_t cap = std::max(kMinJournal, rows / 8);
  if (entries_.size() > cap) {
    const size_t drop = entries_.size() / 2;
    floor_ = entries_[drop - 1].version;
    entries_.erase(entries_.begin(), entries_.begin() + drop);
  }
}

void EraseJournal::Reset(uint64_t version) {
  entries_.clear();
  floor_ = version;
}

bool EraseJournal::ChangesSince(uint64_t from_version, size_t from_size,
                                uint64_t to_version, size_t to_size,
                                RowChanges* out) const {
  if (from_version < floor_ || from_version > to_version) return false;
  const size_t m = from_size;
  // Replays the history on row *origins*. A position below m holds the old
  // row of the same index and a position at or past m an added row, unless
  // `at` says otherwise. Old rows only ever move down (into an erased
  // slot), so positions at or past m never need an entry.
  std::unordered_map<uint32_t, uint32_t> at;
  auto origin = [&](size_t p) -> uint32_t {
    auto it = at.find(static_cast<uint32_t>(p));
    if (it != at.end()) return it->second;
    return p < m ? static_cast<uint32_t>(p) : kAdded;
  };
  size_t size = m;
  auto append = [&](uint64_t count) {
    // Positions below m regrow only after erases shrank the store, so this
    // loop is bounded by the erases replayed so far.
    for (size_t p = size; p < m && p < size + count; ++p) {
      at[static_cast<uint32_t>(p)] = kAdded;
    }
    size += count;
  };
  uint64_t version = from_version;
  auto it = std::upper_bound(
      entries_.begin(), entries_.end(), from_version,
      [](uint64_t v, const Entry& e) { return v < e.version; });
  for (; it != entries_.end() && it->version <= to_version; ++it) {
    append(it->version - version - 1);
    if (size == 0 || it->slot >= size) return false;
    const size_t last = size - 1;
    if (it->slot != last && it->slot < m) at[it->slot] = origin(last);
    --size;
    version = it->version;
  }
  append(to_version - version);
  if (size != to_size) return false;

  out->erased.clear();
  out->moved.clear();
  out->added.clear();
  out->old_size = m;
  out->new_size = size;
  std::unordered_set<uint32_t> moved_from;
  for (const auto& [pos, from] : at) {
    if (pos >= size) continue;
    if (from == kAdded) {
      out->added.push_back(pos);
    } else {
      out->moved.emplace_back(from, pos);
      moved_from.insert(from);
    }
  }
  // An old row left its own index when something else took that index or
  // the store shrank below it; it survives only if it moved.
  for (const auto& [pos, from] : at) {
    (void)from;
    if (pos < size && !moved_from.count(pos)) out->erased.push_back(pos);
  }
  for (size_t p = size; p < m; ++p) {
    if (!moved_from.count(static_cast<uint32_t>(p))) {
      out->erased.push_back(static_cast<uint32_t>(p));
    }
  }
  for (size_t p = m; p < size; ++p) {
    out->added.push_back(static_cast<uint32_t>(p));
  }
  return true;
}

}  // namespace rel
