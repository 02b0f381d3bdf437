#include "base/interner.h"

#include <algorithm>
#include <functional>
#include <new>

#include "base/error.h"
#include "base/hash.h"

namespace rel {

Interner::Interner() = default;

Interner::~Interner() {
  const size_t count = published_.load(std::memory_order_relaxed);
  for (size_t sym = 0; sym < count; ++sym) {
    using std::string;
    chunks_[sym >> kChunkBits]
        .load(std::memory_order_relaxed)[sym & (kChunkSize - 1)]
        .~string();
  }
  for (auto& chunk : chunks_) {
    ::operator delete(chunk.load(std::memory_order_relaxed));
  }
}

Interner& Interner::Global() {
  static Interner* interner = new Interner();
  return *interner;
}

namespace {

size_t SlotHash(std::string_view s) {
  return MixHash(std::hash<std::string_view>{}(s));
}

}  // namespace

void Interner::GrowIndex() {
  std::vector<Symbol> next(std::max<size_t>(1024, index_.size() * 2),
                           kFreeSlot);
  const size_t mask = next.size() - 1;
  for (Symbol sym : index_) {
    if (sym == kFreeSlot) continue;
    size_t slot = SlotHash(At(sym)) & mask;
    while (next[slot] != kFreeSlot) slot = (slot + 1) & mask;
    next[slot] = sym;
  }
  index_.swap(next);
}

Symbol Interner::Intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t sym = published_.load(std::memory_order_relaxed);
  if ((sym + 1) * 4 > index_.size() * 3) GrowIndex();
  const size_t mask = index_.size() - 1;
  size_t slot = SlotHash(s) & mask;
  for (; index_[slot] != kFreeSlot; slot = (slot + 1) & mask) {
    if (At(index_[slot]) == s) return index_[slot];
  }

  InternalCheck(sym < kMaxChunks * kChunkSize, "interner capacity exhausted");
  size_t chunk = sym >> kChunkBits;
  std::string* storage = chunks_[chunk].load(std::memory_order_relaxed);
  if (storage == nullptr) {
    storage = static_cast<std::string*>(
        ::operator new(kChunkSize * sizeof(std::string)));
    chunks_[chunk].store(storage, std::memory_order_release);
  }
  new (&storage[sym & (kChunkSize - 1)]) std::string(s);
  // Publish after the string is fully constructed: a reader that passes the
  // acquire bound below sees the completed element.
  published_.store(sym + 1, std::memory_order_release);
  index_[slot] = static_cast<Symbol>(sym);
  return static_cast<Symbol>(sym);
}

const std::string& Interner::Lookup(Symbol sym) const {
  InternalCheck(sym < published_.load(std::memory_order_acquire),
                "symbol out of range");
  return At(sym);
}

int Interner::Compare(Symbol a, Symbol b) const {
  if (a == b) return 0;
  size_t bound = published_.load(std::memory_order_acquire);
  InternalCheck(a < bound && b < bound, "symbol out of range");
  return At(a).compare(At(b)) < 0 ? -1 : 1;
}

}  // namespace rel
