// Generalized hash indexes for the Datalog evaluator.
//
// A HashIndex maps a fixed set of key columns of one ColumnArena (the
// column-major storage behind one arity of a Relation) to the row indices
// carrying those key values — no tuple copies; probes hand out TupleRef row
// views. The evaluator probes it instead of scanning the whole extent
// whenever a body literal has at least one column bound by the enclosing
// join prefix.
//
// An IndexCache memoizes two kinds of derived access structures per
// predicate so they are built at most once per fixpoint round and shared
// across rules:
//   * hash indexes keyed by (predicate, arity, bound-position set), and
//   * column-permuted sorted copies (joins::SortedColumns) keyed by
//     (predicate, arity, column order) — the triejoin inputs, previously
//     rebuilt on every LeapfrogJoin call.
// Both notice change through the arena's version counter, which advances on
// every mutation (growth between fixpoint rounds, but also erase+reinsert
// cycles a size check would miss). A hash index then repairs itself from
// the arena's erase journal (base/row_journal.h) and rebuilds only when the
// journal no longer reaches back to its version; a sorted copy rebuilds.
//
// Thread safety: the cache may be shared by concurrent evaluation tasks.
// Entry lookup/creation happens under the cache mutex; each entry then
// carries its own build-once latch, so concurrent requesters of the same
// (pred, arity, bound-set) index serialize on that entry — one builds, the
// rest wait and reuse — while builds of *different* indexes proceed in
// parallel. Probing the returned reference is lock-free; this is sound
// because relations only mutate at evaluation round barriers (the
// single-writer discipline in src/datalog/eval.cc), so an index can never
// be repaired or rebuilt while probes of it are in flight.
//
// The Rel solver keeps one IndexCache per Interp (Interp::SolverIndex) and
// uses it from one thread. It passes the arena id as `pred`, since several
// relation instances can share a name, and indexes only relations that stay
// fixed for the Interp's life, so each entry is built once.

#ifndef REL_DATALOG_INDEX_H_
#define REL_DATALOG_INDEX_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "base/flat_index.h"
#include "data/relation.h"
#include "joins/leapfrog.h"

namespace rel {
namespace datalog {

/// A hash index over one column arena for a fixed set of key positions.
class HashIndex {
 public:
  HashIndex() = default;

  /// Builds over `arena` keyed on `key_positions`. `arena` is not owned; it
  /// must outlive the index and keep its rows stable while the index is in
  /// use (the cache repairs or rebuilds whenever the arena's version moves).
  void Build(const ColumnArena* arena, std::vector<size_t> key_positions);
  /// Brings a built index up to `arena`'s current version by replaying the
  /// arena's erase journal (ColumnArena::ChangesSince): erased rows are
  /// unlinked, moved rows relinked, added rows linked. Same arena id as the
  /// build. Returns false, touching nothing, when the journal no longer
  /// reaches back to the index's version; the caller then rebuilds.
  bool Repair(const ColumnArena* arena);
  /// Resets to the unbuilt state (used when the indexed arity vanishes).
  void Clear();

  bool built() const { return arena_ != nullptr; }
  const ColumnArena* arena() const { return arena_; }
  uint64_t built_id() const { return built_id_; }
  uint64_t built_version() const { return built_version_; }
  const std::vector<size_t>& key_positions() const { return keys_; }

  /// Invokes fn(TupleRef) for every row whose key columns equal `key`; `key`
  /// is ordered like the key_positions passed to Build. Rows are visited in
  /// ascending row order — the same order for a repaired index as for one
  /// built fresh over the same arena. Storage is a shared FlatHashIndex
  /// (base/flat_index.h); key columns are verified here.
  template <typename Fn>
  void Probe(const std::vector<Value>& key, Fn&& fn) const {
    if (!arena_) return;
    entries_.Probe(KeyHash(key), [&](uint32_t row) {
      for (size_t k = 0; k < keys_.size(); ++k) {
        if (arena_->At(row, keys_[k]) != key[k]) return;
      }
      fn(arena_->Row(row));
    });
  }

 private:
  size_t KeyHash(const std::vector<Value>& key) const;
  size_t RowKeyHash(size_t row) const;

  const ColumnArena* arena_ = nullptr;
  uint64_t built_id_ = 0;
  uint64_t built_version_ = 0;
  size_t built_size_ = 0;
  std::vector<size_t> keys_;
  FlatHashIndex entries_;
};

/// Cache of derived access structures, repaired or rebuilt lazily when the
/// backing arena's version has moved (relations only change between fixpoint
/// rounds, so entries live for at least a whole round). Safe to share
/// across evaluation tasks; see the threading notes at the top of the file.
class IndexCache {
 public:
  /// Returns the (built) index over `rel`'s tuples of `arity` keyed on
  /// `key_positions`, building, repairing or rebuilding it first when
  /// needed. When the arena is the storage the entry was built over and its
  /// version moved, the index replays the arena's erase journal
  /// (HashIndex::Repair, O(delta x chain)) and *repair_counter is
  /// incremented (when non-null). Only a first build, a different arena id,
  /// or a journal that no longer reaches back rebuilds in full and
  /// increments *build_counter, so index_builds means full builds in every
  /// configuration. Both counters are incremented under the entry latch.
  const HashIndex& Get(const std::string& pred, const Relation& rel,
                       size_t arity, const std::vector<size_t>& key_positions,
                       uint64_t* build_counter,
                       uint64_t* repair_counter = nullptr);

  /// Returns `rel`'s tuples of `arity` with columns permuted into
  /// `col_order` (output column k = stored column col_order[k]) and rows
  /// sorted lexicographically — the Leapfrog Triejoin input format.
  /// Built/rebuilt on demand like Get; increments *build_counter on builds.
  const joins::SortedColumns& GetSorted(const std::string& pred,
                                        const Relation& rel, size_t arity,
                                        const std::vector<size_t>& col_order,
                                        uint64_t* build_counter);

 private:
  using Key = std::tuple<std::string, size_t, std::vector<size_t>>;

  /// Map nodes are stable, so entry addresses survive later insertions and
  /// the per-entry latch can be held after the map mutex is released.
  struct IndexEntry {
    std::mutex latch;
    HashIndex index;
  };

  struct SortedEntry {
    std::mutex latch;
    uint64_t built_id = 0;
    uint64_t built_version = 0;
    bool built = false;
    joins::SortedColumns data;
  };

  std::mutex mu_;  // guards the two maps' structure only
  std::map<Key, IndexEntry> cache_;
  std::map<Key, SortedEntry> sorted_cache_;
};

}  // namespace datalog
}  // namespace rel

#endif  // REL_DATALOG_INDEX_H_
