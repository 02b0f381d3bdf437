// FlatHashIndex: a chained hash index over dense row numbers 0..n-1, shared
// by the Datalog HashIndex and the standalone join algorithms. The index
// narrows by key hash only; callers verify the actual key columns of each
// probed row.
//
// Layout, 8 bytes per row plus 4 per bucket:
//   nodes_[r]   the row's 32-bit folded key hash and its chain successor;
//   tails_[b]   the last row of bucket b's chain, or kNone.
// Each bucket's chain is circular — the tail links back to the head — and
// holds its rows in ascending row order, so a probe visits the rows of a
// key in row order (insertion order, for a store that only appended) and an
// append at the end of the row range links in O(1). The bucket count is a
// power of two kept within [n/2, 2n] (grown and shrunk by relinking every
// row), so the whole index stays within 16 bytes per row.
//
// Besides Build, the index follows a store's row changes in place: Repair
// applies a RowChanges (base/row_journal.h) — unlinking erased rows,
// relinking renumbered ones and linking added ones, each at the cost of a
// walk along one chain — so a small delta costs time in its own size.

#ifndef REL_BASE_FLAT_INDEX_H_
#define REL_BASE_FLAT_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "base/error.h"
#include "base/hash.h"
#include "base/row_journal.h"

namespace rel {

class FlatHashIndex {
 public:
  /// (Re)builds over rows 0..num_rows-1 with hash_of(row) as the key hash.
  template <typename HashFn>
  void Build(size_t num_rows, HashFn&& hash_of) {
    nodes_.resize(num_rows);
    for (size_t i = 0; i < num_rows; ++i) {
      nodes_[i].hash = Fold(hash_of(i));
    }
    Relink(BucketsFor(num_rows));
  }

  /// Invokes fn(row) for every row whose folded key hash equals that of
  /// `h`, in ascending row order.
  template <typename Fn>
  void Probe(size_t h, Fn&& fn) const {
    if (tails_.empty()) return;
    const uint32_t f = Fold(h);
    const uint32_t tail = tails_[f & (tails_.size() - 1)];
    if (tail == kNone) return;
    uint32_t r = tail;
    do {
      r = nodes_[r].next;
      if (nodes_[r].hash == f) fn(r);
    } while (r != tail);
  }

  /// Moves the index from the rows it covers (changes.old_size of them) to
  /// the store's rows after `changes`; hash_of(row) gives the key hash of
  /// an added row under the new numbering.
  template <typename HashFn>
  void Repair(const RowChanges& changes, HashFn&& hash_of) {
    for (uint32_t row : changes.erased) Unlink(row);
    // (new index, folded hash) of every row to link, ascending by index.
    std::vector<std::pair<uint32_t, uint32_t>> link;
    link.reserve(changes.moved.size() + changes.added.size());
    for (const auto& [from, to] : changes.moved) {
      Unlink(from);
      link.emplace_back(to, nodes_[from].hash);
    }
    nodes_.resize(changes.new_size);
    for (uint32_t row : changes.added) {
      link.emplace_back(row, Fold(hash_of(row)));
    }
    std::sort(link.begin(), link.end());
    for (const auto& [row, hash] : link) nodes_[row].hash = hash;
    const size_t n = nodes_.size();
    const size_t buckets = tails_.size();
    if (n > 2 * buckets || (buckets > kMinBuckets && 2 * n < buckets)) {
      Relink(BucketsFor(n));
    } else {
      for (const auto& entry : link) Link(entry.first);
    }
  }

  void Clear() {
    nodes_.clear();
    tails_.clear();
  }
  size_t size() const { return nodes_.size(); }

 private:
  static constexpr uint32_t kNone = 0xffffffffu;
  static constexpr size_t kMinBuckets = 16;

  struct Node {
    uint32_t hash;  // folded key hash
    uint32_t next;  // successor in the bucket's circular chain
  };

  static uint32_t Fold(size_t h) {
    return static_cast<uint32_t>(MixHash(h) >> 32);
  }
  static size_t BucketsFor(size_t rows) {
    size_t buckets = kMinBuckets;
    while (buckets < rows) buckets <<= 1;
    return buckets;
  }
  uint32_t& TailOf(uint32_t row) {
    return tails_[nodes_[row].hash & (tails_.size() - 1)];
  }

  /// Links every row into `buckets` fresh chains, in row order.
  void Relink(size_t buckets) {
    tails_.assign(buckets, kNone);
    for (size_t r = 0; r < nodes_.size(); ++r) {
      Link(static_cast<uint32_t>(r));
    }
  }

  /// Links `row` into its bucket's chain at its row-order position: O(1)
  /// past the tail (the append case), else a walk from the head.
  void Link(uint32_t row) {
    uint32_t& tail = TailOf(row);
    if (tail == kNone) {
      nodes_[row].next = row;
      tail = row;
      return;
    }
    uint32_t prev = tail;  // the head is next[tail]
    if (row > tail) {
      tail = row;
    } else {
      while (nodes_[prev].next < row) prev = nodes_[prev].next;
    }
    nodes_[row].next = nodes_[prev].next;
    nodes_[prev].next = row;
  }

  /// Unlinks `row` from its bucket's chain; its node stays allocated.
  void Unlink(uint32_t row) {
    uint32_t& tail = TailOf(row);
    uint32_t prev = row;
    for (size_t steps = 0; nodes_[prev].next != row; ++steps) {
      InternalCheck(steps < nodes_.size(), "hash index chain lost a row");
      prev = nodes_[prev].next;
    }
    if (prev == row) {
      tail = kNone;
      return;
    }
    nodes_[prev].next = nodes_[row].next;
    if (tail == row) tail = prev;
  }

  std::vector<Node> nodes_;
  std::vector<uint32_t> tails_;  // power-of-two size, or empty before Build
};

}  // namespace rel

#endif  // REL_BASE_FLAT_INDEX_H_
