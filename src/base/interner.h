// String interning.
//
// Rel values of kind String and Entity hold an interned symbol id instead of
// an owned string, which makes Value trivially copyable and makes equality
// and hashing O(1). Ordering of symbols is by string content (via Compare),
// so relation iteration order is stable and human-sensible.

#ifndef REL_BASE_INTERNER_H_
#define REL_BASE_INTERNER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rel {

using Symbol = uint32_t;

/// A process-wide string pool. Internally synchronized so Values can be
/// created, compared and hashed from evaluator worker threads (the parallel
/// Datalog rounds and the engine's parallel constraint checks) — and the
/// read side is **lock-free**: symbols live in a two-level chunk table with
/// a preallocated spine, a new symbol's string is fully constructed before
/// the published count advances (release/acquire), and strings are never
/// moved or erased afterwards. Only Intern takes the mutex, and interning
/// is parse-time rare while Compare/Lookup sit on sort/probe hot paths.
/// Returned string references stay valid forever.
class Interner {
 public:
  Interner();
  ~Interner();

  /// Returns the singleton used by all Values.
  static Interner& Global();

  /// Interns `s`, returning its stable symbol id.
  Symbol Intern(std::string_view s);

  /// Returns the string for a previously interned symbol. Lock-free.
  const std::string& Lookup(Symbol sym) const;

  /// Three-way comparison of two symbols by string content. Lock-free.
  int Compare(Symbol a, Symbol b) const;

  /// Number of distinct strings interned so far.
  size_t size() const { return published_.load(std::memory_order_acquire); }

 private:
  // 1024 chunks x 65536 strings = 67M distinct symbols (8KB spine); the
  // spine is a fixed array of atomic chunk pointers so readers never chase
  // a relocatable structure (the failure mode of deque/vector storage). A
  // chunk is raw storage, and each string is constructed in place when it
  // is interned, so only the pages of interned strings become resident.
  // Exhausting the bound throws kInternal from Intern — raise kMaxChunks
  // if a workload ever has more distinct strings than that (Symbol itself
  // allows 4.29G).
  static constexpr size_t kChunkBits = 16;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;
  static constexpr size_t kMaxChunks = 1024;

  const std::string& At(Symbol sym) const {
    return chunks_[sym >> kChunkBits].load(std::memory_order_acquire)
        [sym & (kChunkSize - 1)];
  }

  /// Marks a free slot of index_ (never a symbol: kMaxChunks * kChunkSize
  /// is far below it).
  static constexpr Symbol kFreeSlot = ~Symbol{0};

  /// Doubles index_ and re-places every symbol. Requires mu_.
  void GrowIndex();

  std::mutex mu_;  // serializes Intern only
  std::array<std::atomic<std::string*>, kMaxChunks> chunks_{};
  std::atomic<size_t> published_{0};
  // The string -> symbol index: an open-addressing table of symbol ids with
  // linear probing over a power-of-two capacity, at most 3/4 full, keyed by
  // the strings in chunk storage (4 bytes per slot). Guarded by mu_;
  // readers never touch it.
  std::vector<Symbol> index_;
};

}  // namespace rel

#endif  // REL_BASE_INTERNER_H_
