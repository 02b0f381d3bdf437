#include "data/relation.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "base/error.h"
#include "base/hash.h"

namespace rel {

// --- ColumnArena -------------------------------------------------------------

uint64_t ColumnArena::NextId() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

ColumnArena::ColumnArena(size_t arity)
    : arity_(arity), id_(NextId()), columns_(arity) {}

ColumnArena::ColumnArena(const ColumnArena& other) : ColumnArena(other.arity_) {
  *this = other;
}

ColumnArena& ColumnArena::operator=(const ColumnArena& other) {
  if (this == &other) return *this;
  const uint64_t id = id_;  // keep this storage's identity
  arity_ = other.arity_;
  num_rows_ = other.num_rows_;
  // Contents changed wholesale; stay ahead of any version a cache may have
  // recorded for this storage.
  version_ = std::max(version_, other.version_) + 1;
  columns_ = other.columns_;
  hashes_ = other.hashes_;
  slots_ = other.slots_;
  tombstones_ = other.tombstones_;
  // No history leads here from this storage's earlier versions.
  journal_.Reset(version_);
  // A view current in `other` is current here; a stale one could only be
  // repaired from other's journal, so it is dropped.
  sorted_rows_ = other.sorted_rows_;
  sorted_version_ =
      other.sorted_version_ == other.version_ ? version_ : kNoView;
  id_ = id;
  return *this;
}

template <typename GetFn>
bool ColumnArena::RowEquals(size_t row, GetFn&& get) const {
  for (size_t c = 0; c < arity_; ++c) {
    if (columns_[c][row] != get(c)) return false;
  }
  return true;
}

bool ColumnArena::RowEqualsSpan(size_t row, const Value* vals) const {
  return RowEquals(row, [vals](size_t c) -> const Value& { return vals[c]; });
}

template <typename EqFn>
size_t ColumnArena::FindRow(size_t h, EqFn&& eq) const {
  if (slots_.empty()) return kNoRow;
  const size_t mask = slots_.size() - 1;
  for (size_t i = MixHash(h) & mask;; i = (i + 1) & mask) {
    uint32_t s = slots_[i];
    if (s == kEmptySlot) return kNoRow;
    if (s != kTombstone && hashes_[s] == h && eq(static_cast<size_t>(s))) {
      return s;
    }
  }
}

template <typename GetFn>
void ColumnArena::AppendRow(size_t h, GetFn&& get) {
  const uint32_t row = static_cast<uint32_t>(num_rows_);
  for (size_t c = 0; c < arity_; ++c) columns_[c].push_back(get(c));
  hashes_.push_back(h);
  ++num_rows_;
  const size_t mask = slots_.size() - 1;
  for (size_t i = MixHash(h) & mask;; i = (i + 1) & mask) {
    uint32_t s = slots_[i];
    if (s == kEmptySlot || s == kTombstone) {
      if (s == kTombstone) --tombstones_;
      slots_[i] = row;
      return;
    }
  }
}

template <typename GetFn>
size_t ColumnArena::InsertImpl(size_t h, GetFn&& get) {
  MaybeGrowTable();
  size_t existing = FindRow(h, [&](size_t row) { return RowEquals(row, get); });
  if (existing != kNoRow) return kNoRow;
  AppendRow(h, get);
  ++version_;
  return num_rows_ - 1;
}

bool ColumnArena::Insert(const Value* vals) {
  return InsertHashed(vals, HashRow(vals, arity_)) != kNoRow;
}

bool ColumnArena::Insert(const TupleRef& ref) {
  InternalCheck(ref.arity() == arity_, "arena insert arity mismatch");
  return InsertImpl(ref.Hash(), [&ref](size_t c) -> const Value& {
           return ref[c];
         }) != kNoRow;
}

bool ColumnArena::InsertRowOf(const ColumnArena& src, size_t row) {
  InternalCheck(src.arity_ == arity_, "arena insert arity mismatch");
  return InsertImpl(src.hashes_[row], [&src, row](size_t c) -> const Value& {
           return src.columns_[c][row];
         }) != kNoRow;
}

size_t ColumnArena::InsertHashed(const Value* vals, size_t hash) {
  return InsertImpl(hash, [vals](size_t c) -> const Value& { return vals[c]; });
}

bool ColumnArena::Contains(const Value* vals) const {
  return ContainsHashed(vals, HashRow(vals, arity_));
}

bool ColumnArena::ContainsHashed(const Value* vals, size_t hash) const {
  return FindRow(hash, [&](size_t row) { return RowEqualsSpan(row, vals); }) !=
         kNoRow;
}

bool ColumnArena::Contains(const TupleRef& ref) const {
  InternalCheck(ref.arity() == arity_, "arena contains arity mismatch");
  return FindRow(ref.Hash(), [&](size_t r) {
           return RowEquals(r, [&ref](size_t c) -> const Value& { return ref[c]; });
         }) != kNoRow;
}

bool ColumnArena::ContainsRowOf(const ColumnArena& src, size_t row) const {
  return FindRow(src.hashes_[row], [&](size_t r) {
           return RowEquals(r, [&src, row](size_t c) -> const Value& {
             return src.columns_[c][row];
           });
         }) != kNoRow;
}

size_t ColumnArena::SlotOf(size_t row) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = MixHash(hashes_[row]) & mask;; i = (i + 1) & mask) {
    if (slots_[i] == row) return i;
    InternalCheck(slots_[i] != kEmptySlot, "arena table lost a row");
  }
}

bool ColumnArena::Erase(const Value* vals) {
  size_t h = HashRow(vals, arity_);
  size_t row =
      FindRow(h, [&](size_t r) { return RowEqualsSpan(r, vals); });
  if (row == kNoRow) return false;
  slots_[SlotOf(row)] = kTombstone;
  ++tombstones_;
  const size_t last = num_rows_ - 1;
  if (row != last) {
    // Swap the last row into the hole and renumber its table entry.
    size_t last_slot = SlotOf(last);
    for (size_t c = 0; c < arity_; ++c) {
      columns_[c][row] = columns_[c][last];
    }
    hashes_[row] = hashes_[last];
    slots_[last_slot] = static_cast<uint32_t>(row);
  }
  for (size_t c = 0; c < arity_; ++c) columns_[c].pop_back();
  hashes_.pop_back();
  --num_rows_;
  ++version_;
  journal_.RecordErase(version_, static_cast<uint32_t>(row), num_rows_);
  return true;
}

void ColumnArena::MaybeGrowTable() {
  // Keep occupancy (live rows + tombstones) at or below 3/4.
  if ((num_rows_ + tombstones_ + 1) * 4 > slots_.size() * 3) {
    size_t want = 16;
    while (want < (num_rows_ + 1) * 2) want <<= 1;
    Rehash(want);
  }
}

void ColumnArena::Rehash(size_t min_slots) {
  slots_.assign(min_slots, kEmptySlot);
  tombstones_ = 0;
  const size_t mask = slots_.size() - 1;
  for (size_t row = 0; row < num_rows_; ++row) {
    for (size_t i = MixHash(hashes_[row]) & mask;; i = (i + 1) & mask) {
      if (slots_[i] == kEmptySlot) {
        slots_[i] = static_cast<uint32_t>(row);
        break;
      }
    }
  }
}

bool ColumnArena::RowLess(uint32_t a, uint32_t b) const {
  for (size_t c = 0; c < arity_; ++c) {
    int cmp = columns_[c][a].Compare(columns_[c][b]);
    if (cmp != 0) return cmp < 0;
  }
  return false;
}

const std::vector<uint32_t>& ColumnArena::SortedRows() const {
  if (sorted_version_ == version_) return sorted_rows_;
  RowChanges changes;
  if (sorted_version_ != kNoView &&
      ChangesSince(sorted_version_, sorted_rows_.size(), &changes)) {
    RepairSortedRows(changes);
  } else {
    sorted_rows_.resize(num_rows_);
    std::iota(sorted_rows_.begin(), sorted_rows_.end(), 0u);
    std::sort(sorted_rows_.begin(), sorted_rows_.end(),
              [this](uint32_t a, uint32_t b) { return RowLess(a, b); });
  }
  sorted_version_ = version_;
  return sorted_rows_;
}

void ColumnArena::RepairSortedRows(const RowChanges& changes) const {
  if (!changes.erased.empty() || !changes.moved.empty()) {
    // One integer pass: rename moved survivors, drop erased rows. Moved rows
    // keep their place, since their contents did not change.
    constexpr uint32_t kDropped = 0xffffffffu;
    std::vector<uint32_t> rename(changes.old_size);
    std::iota(rename.begin(), rename.end(), 0u);
    for (uint32_t row : changes.erased) rename[row] = kDropped;
    for (const auto& [from, to] : changes.moved) rename[from] = to;
    size_t kept = 0;
    for (uint32_t old_row : sorted_rows_) {
      const uint32_t row = rename[old_row];
      if (row != kDropped) sorted_rows_[kept++] = row;
    }
    sorted_rows_.resize(kept);
  }
  if (!changes.added.empty()) {
    // Value compares only for the added rows: sort them, binary-search each
    // one's place among the survivors, then merge from the back.
    std::vector<uint32_t> added = changes.added;
    auto less = [this](uint32_t a, uint32_t b) { return RowLess(a, b); };
    std::sort(added.begin(), added.end(), less);
    std::vector<size_t> place(added.size());
    auto from = sorted_rows_.begin();
    for (size_t k = 0; k < added.size(); ++k) {
      from = std::lower_bound(from, sorted_rows_.end(), added[k], less);
      place[k] = static_cast<size_t>(from - sorted_rows_.begin());
    }
    size_t src = sorted_rows_.size();
    size_t dst = src + added.size();
    sorted_rows_.resize(dst);
    for (size_t k = added.size(); k-- > 0;) {
      while (src > place[k]) sorted_rows_[--dst] = sorted_rows_[--src];
      sorted_rows_[--dst] = added[k];
    }
  }
}

// --- Relation ----------------------------------------------------------------

Relation Relation::True() { return Singleton(Tuple{}); }

Relation Relation::False() { return Relation(); }

Relation Relation::Singleton(Tuple t) {
  Relation r;
  r.Insert(t);
  return r;
}

Relation Relation::FromTuples(const std::vector<Tuple>& tuples) {
  Relation r;
  for (const Tuple& t : tuples) r.Insert(t);
  return r;
}

ColumnArena& Relation::ArenaFor(size_t arity) {
  return blocks_.try_emplace(arity, arity).first->second;
}

bool Relation::Insert(const Tuple& t) {
  return Insert(t.values().data(), t.arity());
}

bool Relation::Insert(const Value* vals, size_t arity) {
  return InsertHashed(vals, arity, HashRow(vals, arity)) != ColumnArena::kNoRow;
}

size_t Relation::InsertHashed(const Value* vals, size_t arity, size_t hash) {
  size_t row = ArenaFor(arity).InsertHashed(vals, hash);
  if (row != ColumnArena::kNoRow) ++size_;
  return row;
}

bool Relation::Insert(const TupleRef& ref) {
  bool inserted = ArenaFor(ref.arity()).Insert(ref);
  if (inserted) ++size_;
  return inserted;
}

bool Relation::InsertRowFrom(const ColumnArena& src, size_t row) {
  if (!ArenaFor(src.arity()).InsertRowOf(src, row)) return false;
  ++size_;
  return true;
}

bool Relation::InsertAll(const Relation& other) {
  bool changed = false;
  for (const auto& [arity, src] : other.blocks_) {
    (void)arity;
    for (size_t r = 0; r < src.size(); ++r) {
      changed |= InsertRowFrom(src, r);
    }
  }
  return changed;
}

bool Relation::Erase(const Tuple& t) {
  return Erase(t.values().data(), t.arity());
}

bool Relation::Erase(const Value* vals, size_t arity) {
  auto it = blocks_.find(arity);
  if (it == blocks_.end()) return false;
  if (!it->second.Erase(vals)) return false;
  --size_;
  if (it->second.empty()) blocks_.erase(it);
  return true;
}

bool Relation::Contains(const Tuple& t) const {
  return Contains(t.values().data(), t.arity());
}

bool Relation::Contains(const Value* vals, size_t arity) const {
  auto it = blocks_.find(arity);
  return it != blocks_.end() && it->second.Contains(vals);
}

bool Relation::ContainsHashed(const Value* vals, size_t arity,
                              size_t hash) const {
  auto it = blocks_.find(arity);
  return it != blocks_.end() && it->second.ContainsHashed(vals, hash);
}

bool Relation::Contains(const TupleRef& ref) const {
  auto it = blocks_.find(ref.arity());
  return it != blocks_.end() && it->second.Contains(ref);
}

bool Relation::IsBoolean() const {
  return empty() || (size_ == 1 && blocks_.count(0) > 0);
}

bool Relation::AsBool() const { return blocks_.count(0) > 0; }

std::vector<size_t> Relation::Arities() const {
  std::vector<size_t> arities;
  arities.reserve(blocks_.size());
  for (const auto& [arity, arena] : blocks_) {
    (void)arena;
    arities.push_back(arity);
  }
  return arities;
}

size_t Relation::CountOfArity(size_t arity) const {
  auto it = blocks_.find(arity);
  return it == blocks_.end() ? 0 : it->second.size();
}

const ColumnArena* Relation::ArenaOfArity(size_t arity) const {
  auto it = blocks_.find(arity);
  return it == blocks_.end() ? nullptr : &it->second;
}

std::vector<Tuple> Relation::TuplesOfArity(size_t arity) const {
  std::vector<Tuple> out;
  if (const ColumnArena* arena = ArenaOfArity(arity)) {
    out.reserve(arena->size());
    for (uint32_t r : arena->SortedRows()) {
      out.push_back(arena->Row(r).ToTuple());
    }
  }
  return out;
}

std::vector<Tuple> Relation::SortedTuples() const {
  std::vector<Tuple> out;
  out.reserve(size_);
  for (const auto& [arity, arena] : blocks_) {
    (void)arity;
    for (uint32_t r : arena.SortedRows()) out.push_back(arena.Row(r).ToTuple());
  }
  return out;
}

Relation Relation::Suffixes(const Tuple& prefix) const {
  Relation out;
  ScanPrefix(prefix, [&](const TupleRef& t) {
    out.Insert(t.Slice(prefix.arity(), t.arity()));
    return true;
  });
  return out;
}

Relation Relation::Union(const Relation& other) const {
  Relation out = *this;
  out.InsertAll(other);
  return out;
}

Relation Relation::Intersect(const Relation& other) const {
  const Relation& small = size() <= other.size() ? *this : other;
  const Relation& large = size() <= other.size() ? other : *this;
  Relation out;
  for (const auto& [arity, arena] : small.blocks_) {
    const ColumnArena* other_arena = large.ArenaOfArity(arity);
    if (!other_arena) continue;
    for (size_t r = 0; r < arena.size(); ++r) {
      if (other_arena->ContainsRowOf(arena, r)) out.InsertRowFrom(arena, r);
    }
  }
  return out;
}

Relation Relation::Minus(const Relation& other) const {
  Relation out;
  for (const auto& [arity, arena] : blocks_) {
    const ColumnArena* other_arena = other.ArenaOfArity(arity);
    for (size_t r = 0; r < arena.size(); ++r) {
      if (!other_arena || !other_arena->ContainsRowOf(arena, r)) {
        out.InsertRowFrom(arena, r);
      }
    }
  }
  return out;
}

bool Relation::operator==(const Relation& other) const {
  if (size_ != other.size_) return false;
  if (blocks_.size() != other.blocks_.size()) return false;
  for (const auto& [arity, arena] : blocks_) {
    const ColumnArena* other_arena = other.ArenaOfArity(arity);
    if (!other_arena) return false;
    if (arena.size() != other_arena->size()) return false;
    for (size_t r = 0; r < arena.size(); ++r) {
      if (!other_arena->ContainsRowOf(arena, r)) return false;
    }
  }
  return true;
}

size_t Relation::Hash() const {
  // XOR of row hashes is order-insensitive, then mix in the size.
  size_t acc = 0;
  for (const auto& [arity, arena] : blocks_) {
    (void)arity;
    for (size_t r = 0; r < arena.size(); ++r) {
      acc ^= arena.RowHash(r);
    }
  }
  return HashCombine(acc, size_);
}

std::string Relation::ToString() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [arity, arena] : blocks_) {
    (void)arity;
    for (uint32_t r : arena.SortedRows()) {
      if (!first) out += "; ";
      first = false;
      out += arena.Row(r).ToString();
    }
  }
  out += "}";
  return out;
}

}  // namespace rel
