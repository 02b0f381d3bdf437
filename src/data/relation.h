// Relation: a set of tuples, possibly of mixed arity (Rels1 in Addendum A).
//
// Storage is column-major: each arity that occurs in the relation owns a
// ColumnArena — one flat std::vector<Value> per column, an open-addressing
// hash table over row *indices* for O(1) dedup/membership (no materialized
// tuples), and a lazily maintained sorted row-index view used for
// deterministic iteration and for prefix range scans (the access path behind
// partial application R[a,b]). Rows are handed out as lightweight TupleRef
// views; see src/data/README.md for the layout and validity invariants.
//
// Mixed arity is a first-class feature: the paper's `Prefix` and `Perm`
// examples (Section 4.1) produce relations whose tuples have many arities.

#ifndef REL_DATA_RELATION_H_
#define REL_DATA_RELATION_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/row_journal.h"
#include "data/tuple.h"

namespace rel {

/// Column-major storage for the fixed-arity slice of a relation: `arity`
/// parallel column vectors, per-row cached content hashes, an open-addressing
/// row-index table for dedup, and a lazy sorted row view. Append-only except
/// for Erase (which swaps the last row into the hole, renumbering that row).
/// Erases are recorded in a bounded journal (base/row_journal.h), from which
/// derived structures — the sorted rows here, the Datalog hash indexes —
/// repair themselves instead of rebuilding.
class ColumnArena {
 public:
  explicit ColumnArena(size_t arity);
  // Copies are distinct storage and get a fresh id. Moves are deleted: a
  // defaulted move would leave the source with a stale size and a duplicate
  // id, and no container here ever relocates an arena (std::map nodes are
  // stable).
  ColumnArena(const ColumnArena& other);
  ColumnArena& operator=(const ColumnArena& other);
  ColumnArena(ColumnArena&&) = delete;
  ColumnArena& operator=(ColumnArena&&) = delete;

  size_t arity() const { return arity_; }
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  /// Bumped by exactly one on every successful Insert or Erase (and moved
  /// past every recorded version by copy-assignment); consumers (index
  /// caches) use it to detect staleness — unlike a size comparison it also
  /// catches erase+insert sequences that return to a previous size.
  uint64_t version() const { return version_; }
  /// Process-unique, never reused. Caches key on (id, version) rather than
  /// the arena address: a new arena allocated where a freed one lived (the
  /// erase-all-then-reinsert path) must not alias its predecessor's entries.
  uint64_t id() const { return id_; }

  const Value& At(size_t row, size_t col) const { return columns_[col][row]; }
  const std::vector<Value>& Column(size_t col) const { return columns_[col]; }
  TupleRef Row(size_t row) const {
    return TupleRef(columns_.data(), arity_, row);
  }
  /// The cached content hash of a row (equals Tuple::Hash of the row).
  size_t RowHash(size_t row) const { return hashes_[row]; }

  /// Row index meaning "absent": what InsertHashed returns for a row that
  /// was already present.
  static constexpr size_t kNoRow = static_cast<size_t>(-1);

  /// Inserts the row `vals[0..arity)`; returns false if already present.
  bool Insert(const Value* vals);
  bool Insert(const TupleRef& ref);
  /// Inserts row `row` of `src` (same arity); reuses src's cached hash.
  bool InsertRowOf(const ColumnArena& src, size_t row);
  /// Insert with the row's precomputed `hash` (must equal HashRow(vals,
  /// arity())). Returns the index the new row landed at — the row
  /// ForEachRow visits there — or kNoRow if the row was already present.
  size_t InsertHashed(const Value* vals, size_t hash);

  bool Contains(const Value* vals) const;
  bool Contains(const TupleRef& ref) const;
  bool ContainsRowOf(const ColumnArena& src, size_t row) const;
  /// Contains with a precomputed `hash` (must equal HashRow(vals, arity())).
  bool ContainsHashed(const Value* vals, size_t hash) const;

  /// Removes the row equal to `vals`, swapping the last row into its slot
  /// (row indices of the moved row change) and journaling the slot.
  bool Erase(const Value* vals);

  /// The net row changes since a structure was built over this arena at
  /// (`version`, `size`): see EraseJournal::ChangesSince. False when the
  /// journal no longer reaches back that far — the structure must rebuild.
  bool ChangesSince(uint64_t version, size_t size, RowChanges* out) const {
    return journal_.ChangesSince(version, size, version_, num_rows_, out);
  }

  /// Row indices in lexicographic tuple order — the arena's one sorted
  /// view; every sorted Tuple read is built from it per call. Brought up to
  /// date lazily: from the erase journal when it reaches back to the view's
  /// version (the survivors are renamed and filtered in one integer pass,
  /// and only the added rows are sorted and merged in), else by a full
  /// sort. Returns at once, writing nothing, when already current. The
  /// returned vector is stable across Insert (stale but safe), not across
  /// Erase.
  const std::vector<uint32_t>& SortedRows() const;

  /// Invokes fn(TupleRef) for every row present at entry. The row count is
  /// snapshotted, and appends never move existing rows, so inserting into
  /// this arena from `fn` is safe (new rows are not visited this pass).
  ///
  /// Erasing from `fn` is tolerated but lossy *as long as this arena stays
  /// alive*: Erase swaps the last row into the hole, so the swapped row may
  /// be skipped (if the hole was already visited) or seen under its new
  /// index, and the loop re-clamps to the shrunken row count instead of
  /// handing out stale row indices past the end. Beware the owner, though:
  /// Relation destroys an arena the moment it empties, so erasing the last
  /// remaining row of this arena through a Relation wrapper frees the
  /// object mid-loop — see Relation::ForEach for that hard exception.
  /// Exactly-once visitation holds only when `fn` does not erase — pinned
  /// by tests/data/columnar_test.cc.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    const size_t n = num_rows_;
    for (size_t r = 0; r < n && r < num_rows_; ++r) fn(Row(r));
  }

  /// Like ForEachRow restricted to rows [begin, min(end, size())). Row
  /// indices are stable under append, so disjoint ranges partition the
  /// arena exactly — the parallel evaluator splits driver scans this way,
  /// one range per task, while the arena itself stays read-only. The same
  /// erase re-clamp as ForEachRow applies (a shrinking arena truncates the
  /// range rather than yielding dangling rows), with the same owner caveat:
  /// an erase that empties the arena destroys it mid-loop.
  template <typename Fn>
  void ForEachRowRange(size_t begin, size_t end, Fn&& fn) const {
    const size_t n = std::min(end, num_rows_);
    for (size_t r = begin; r < n && r < num_rows_; ++r) fn(Row(r));
  }

 private:
  static constexpr uint32_t kEmptySlot = 0xffffffffu;
  static constexpr uint32_t kTombstone = 0xfffffffeu;

  // True iff row `row` equals the candidate whose value at column c is
  // get(c) — the single definition of row equality.
  template <typename GetFn>
  bool RowEquals(size_t row, GetFn&& get) const;
  // Returns the index of the row whose hash is `h` and whose columns satisfy
  // eq(row), or kNoRow. `eq` is only called when hashes match.
  template <typename EqFn>
  size_t FindRow(size_t h, EqFn&& eq) const;
  // Appends a row (values provided by get(col)) and links it into the table.
  template <typename GetFn>
  void AppendRow(size_t h, GetFn&& get);
  // Returns the new row's index, or kNoRow if the row was present.
  template <typename GetFn>
  size_t InsertImpl(size_t h, GetFn&& get);
  bool RowEqualsSpan(size_t row, const Value* vals) const;
  void MaybeGrowTable();
  void Rehash(size_t min_slots);
  // The slot holding row index `row` (which must be present).
  size_t SlotOf(size_t row) const;
  // Lexicographic order of two rows of this arena.
  bool RowLess(uint32_t a, uint32_t b) const;
  // Brings sorted_rows_ from sorted_version_ to version_ via `changes`.
  void RepairSortedRows(const RowChanges& changes) const;

  static uint64_t NextId();

  size_t arity_ = 0;
  size_t num_rows_ = 0;
  uint64_t version_ = 0;
  uint64_t id_ = 0;
  std::vector<std::vector<Value>> columns_;  // columns_[c][r]; size() == arity_
  std::vector<size_t> hashes_;               // per-row content hash
  std::vector<uint32_t> slots_;              // open addressing; power of two
  size_t tombstones_ = 0;
  EraseJournal journal_;

  // Lazy sorted view, stamped with the version it is current for (kNoView:
  // none). A mutation leaves it stale, contents intact — iteration in
  // flight during an Insert stays memory-safe, and the next read repairs
  // it from the journal.
  static constexpr uint64_t kNoView = ~uint64_t{0};
  mutable std::vector<uint32_t> sorted_rows_;
  mutable uint64_t sorted_version_ = kNoView;
};

/// A (first-order) relation: a finite set of tuples of mixed arity.
class Relation {
 public:
  Relation() = default;

  /// The relation {<>} that encodes boolean TRUE (Section 4.3).
  static Relation True();
  /// The empty relation {} that encodes boolean FALSE.
  static Relation False();
  /// A relation holding a single tuple.
  static Relation Singleton(Tuple t);
  /// A relation built from a list of tuples (duplicates collapse).
  static Relation FromTuples(const std::vector<Tuple>& tuples);

  /// Inserts `t`; returns true if it was not already present.
  bool Insert(const Tuple& t);
  /// Inserts the tuple `vals[0..arity)` without materializing a Tuple — the
  /// zero-allocation emit path of the Datalog evaluator.
  bool Insert(const Value* vals, size_t arity);
  bool Insert(const TupleRef& ref);
  /// Insert with a precomputed `hash` (must equal HashRow(vals, arity)), so
  /// a caller that already probed the row hashes it once. Returns the row
  /// index in ArenaOfArity(arity), or ColumnArena::kNoRow if present.
  size_t InsertHashed(const Value* vals, size_t arity, size_t hash);
  /// Inserts every tuple of `other`; returns true if anything was added.
  bool InsertAll(const Relation& other);
  /// Removes `t`; returns true if it was present.
  bool Erase(const Tuple& t);
  bool Erase(const Value* vals, size_t arity);

  bool Contains(const Tuple& t) const;
  bool Contains(const Value* vals, size_t arity) const;
  bool Contains(const TupleRef& ref) const;
  /// Contains with a precomputed `hash` (must equal HashRow(vals, arity)).
  bool ContainsHashed(const Value* vals, size_t arity, size_t hash) const;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// True iff this relation is {<>} or {} — i.e. encodes a boolean.
  bool IsBoolean() const;
  /// True iff this relation contains the empty tuple (boolean TRUE).
  bool AsBool() const;

  /// All arities that occur in the relation, ascending.
  std::vector<size_t> Arities() const;

  /// Number of tuples of one arity, without forcing any view.
  size_t CountOfArity(size_t arity) const;

  /// The column arena backing one arity, or nullptr if that arity is absent.
  /// The arena address is stable while the arity remains populated and the
  /// Relation is neither copied, moved-from, nor destroyed.
  const ColumnArena* ArenaOfArity(size_t arity) const;

  /// All tuples of a given arity in sorted order (empty if none), copied
  /// out of that arena's SortedRows() on every call. For callers that need
  /// one arity in a deterministic order: src/kg reports constraint
  /// violations in this order, and tests compare against it. Evaluation
  /// paths never call it; they use ArenaOfArity / ForEachOfArity.
  std::vector<Tuple> TuplesOfArity(size_t arity) const;

  /// All tuples, sorted by (arity, lexicographic), copied out of each
  /// arena's SortedRows() on every call. Deterministic.
  std::vector<Tuple> SortedTuples() const;

  /// Invokes fn(TupleRef) for every tuple, without copying and without
  /// forcing the sorted view. Iteration order is unspecified (insertion
  /// order per arity); use SortedTuples() when determinism matters.
  /// Inserting into this relation from `fn` is safe: rows appended to an
  /// already-visited or in-progress arity are not visited this pass (the
  /// per-arity row count is snapshotted), though a brand-new arity created
  /// mid-iteration may be. Erasing from `fn` follows the ColumnArena
  /// contract (memory-safe, lossy visitation) with one hard exception:
  /// erasing the LAST tuple of the arity being iterated destroys that
  /// arity's arena (the blocks_ map holds only non-empty arenas — AsBool
  /// and operator== rely on that) and is therefore unsupported while any
  /// iteration over it is in flight. Pinned by tests/data/columnar_test.cc.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [arity, arena] : blocks_) {
      (void)arity;
      arena.ForEachRow(fn);
    }
  }

  /// Like ForEach but restricted to one arity. Same insert-while-iterating
  /// guarantee; does not force (or sort) any view.
  template <typename Fn>
  void ForEachOfArity(size_t arity, Fn&& fn) const {
    auto it = blocks_.find(arity);
    if (it == blocks_.end()) return;
    it->second.ForEachRow(fn);
  }

  /// ForEachOfArity over the row-index range [begin, end) of that arity's
  /// arena — the chunked-driver access path of the parallel evaluator.
  /// Purely read-only: does not force any lazy view, so concurrent calls
  /// on a frozen relation are safe. If `fn` erases (single-threaded use
  /// only), the swap-last erase renumbers the moved row and the range
  /// truncates to the shrunken arena; see ColumnArena::ForEachRow for the
  /// exact guarantee and ForEach above for the hard exception — erasing
  /// the last remaining tuple of the iterated arity destroys its arena.
  template <typename Fn>
  void ForEachOfArityRange(size_t arity, size_t begin, size_t end,
                           Fn&& fn) const {
    auto it = blocks_.find(arity);
    if (it == blocks_.end()) return;
    it->second.ForEachRowRange(begin, end, fn);
  }

  /// Tuples of arity >= prefix.arity() that start with `prefix`, i.e. the
  /// matches used by partial application. The callback receives each full
  /// matching row as a TupleRef; return false from it to stop early.
  template <typename Fn>
  void ScanPrefix(const Tuple& prefix, Fn&& fn) const;

  /// The suffixes of tuples matching `prefix` (partial application R[...]).
  Relation Suffixes(const Tuple& prefix) const;

  /// Set algebra (used by builtins and tests).
  Relation Union(const Relation& other) const;
  Relation Intersect(const Relation& other) const;
  Relation Minus(const Relation& other) const;

  bool operator==(const Relation& other) const;
  bool operator!=(const Relation& other) const { return !(*this == other); }

  /// Order-insensitive content hash, used as memo key for second-order
  /// relation arguments.
  size_t Hash() const;

  /// {(1, 2); (3, 4)} — sorted, deterministic.
  std::string ToString() const;

 private:
  ColumnArena& ArenaFor(size_t arity);
  /// Inserts row `row` of `src` into this relation's arena of the same
  /// arity, keeping size_ in sync — the one place that invariant lives for
  /// arena-to-arena copies.
  bool InsertRowFrom(const ColumnArena& src, size_t row);

  std::map<size_t, ColumnArena> blocks_;
  size_t size_ = 0;
};

template <typename Fn>
void Relation::ScanPrefix(const Tuple& prefix, Fn&& fn) const {
  const size_t k = prefix.arity();
  const Value* pvals = prefix.values().data();
  for (const auto& [arity, arena] : blocks_) {
    if (arity < k) continue;
    const std::vector<uint32_t>& order = arena.SortedRows();
    // Lexicographic compare of the row's first k columns against the prefix
    // (no arity tie-break: every row in this block extends the prefix).
    auto cmp_prefix = [&](uint32_t row) {
      for (size_t i = 0; i < k; ++i) {
        int c = arena.At(row, i).Compare(pvals[i]);
        if (c != 0) return c;
      }
      return 0;
    };
    // Matches form a contiguous run; two binary searches bound it.
    size_t lo = 0;
    size_t hi = order.size();
    while (lo < hi) {
      size_t mid = lo + (hi - lo) / 2;
      if (cmp_prefix(order[mid]) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    size_t end_lo = lo;
    size_t end_hi = order.size();
    while (end_lo < end_hi) {
      size_t mid = end_lo + (end_hi - end_lo) / 2;
      if (cmp_prefix(order[mid]) <= 0) {
        end_lo = mid + 1;
      } else {
        end_hi = mid;
      }
    }
    if (lo == end_lo) continue;
    // Snapshot the run before calling out: a callback that inserts and then
    // touches a sorted view re-sorts sorted_rows_ in place, which would
    // shift the run under a live iteration over `order`. Typical partial-
    // application runs are short, so a stack buffer avoids an allocation on
    // the solver's hot path.
    const size_t count = end_lo - lo;
    uint32_t small[64];
    std::vector<uint32_t> big;
    const uint32_t* run;
    if (count <= 64) {
      std::copy(order.begin() + lo, order.begin() + end_lo, small);
      run = small;
    } else {
      big.assign(order.begin() + lo, order.begin() + end_lo);
      run = big.data();
    }
    for (size_t i = 0; i < count; ++i) {
      if (!fn(arena.Row(run[i]))) return;
    }
  }
}

}  // namespace rel

#endif  // REL_DATA_RELATION_H_
