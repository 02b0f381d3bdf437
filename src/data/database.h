// Database: the store of named base relations, redesigned (PR 7) as an
// immutable-snapshot handle.
//
// Rel's control relations (insert/delete, Section 3.4) apply their effects
// here at transaction commit. Derived relations (those defined by `def`
// rules) are computed by the evaluator and never stored in the Database.
//
// Ownership model — copy-on-write snapshots:
//
//   * Each named relation is held through a shared_ptr slot. Copying a
//     Database copies the slot map (O(#relations) pointer copies), never
//     the tuples: the copy IS a snapshot, and the serving layer publishes
//     exactly such copies as `std::shared_ptr<const Database>` for any
//     number of reader sessions to pin.
//
//   * Mutation is copy-on-write at relation granularity. Every slot tracks
//     whether THIS Database instance created or cloned its relation; the
//     first mutation of a slot that is (or may be) shared with a copy
//     clones the relation and mutates the clone. Taking a copy marks every
//     slot of BOTH sides shared (the source's flags are mutable), so the
//     classic `Database backup = db; mutate(db);` pattern keeps its deep-
//     copy semantics at shared-copy cost.
//
//   * Thread-safety contract: concurrent const reads of one Database are
//     safe once FreezeViews() has been called after its last mutation.
//     Each arena's lazily built sorted row order is the only mutable
//     read-path state; once current, SortedRows() returns without a write,
//     and every sorted Tuple read (Relation::SortedTuples, TuplesOfArity,
//     ToString) copies out of it into the caller's own vector.
//     COPYING a Database concurrently with other access to the same object
//     is NOT safe — the copy writes the source's sharing flags. In the
//     engine only the single writer ever copies (to publish or roll back),
//     so this never races; see ARCHITECTURE.md "Sessions & snapshot
//     isolation".

#ifndef REL_DATA_DATABASE_H_
#define REL_DATA_DATABASE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "data/relation.h"

namespace rel {

/// The net, effect-free difference between two Database versions, recorded
/// by the single-writer commit pipeline as it applies a transaction:
/// `inserted` holds tuples absent at `from_version` and present at
/// `to_version`, `deleted` the reverse; an insert-then-delete of the same
/// tuple within the span cancels out of both. Snapshots carry a bounded
/// chain of recent deltas so sessions can maintain cached derived state
/// forward instead of recomputing (src/core/extent_cache.h).
struct DatabaseDelta {
  struct Change {
    Relation inserted;
    Relation deleted;
  };
  uint64_t from_version = 0;
  uint64_t to_version = 0;
  /// Guards against version-counter aliasing across recovery: deltas only
  /// compose between snapshots of the same storage epoch (Engine bumps the
  /// epoch when AttachStorage rebuilds the Database from disk).
  uint64_t db_epoch = 0;
  std::map<std::string, Change> changes;

  bool empty() const;
  /// Records one effective insert (cancelling a pending delete first).
  void RecordInsert(const std::string& name, const Tuple& t);
  /// Records one effective delete (cancelling a pending insert first).
  void RecordDelete(const std::string& name, const Tuple& t);
  /// True when the whole relation changed in a way tuple deltas don't
  /// capture (Put/Drop); maintenance consumers must fall back.
  bool wholesale = false;
};

/// Named base relations. Creating a relation on first insert mirrors the
/// paper's "there is no need to declare a new base relation" (Section 3.4).
class Database {
 public:
  Database() = default;
  /// Snapshot copy: shares every relation with `other` and marks both
  /// sides copy-on-write (see the header comment for the contract).
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&&) noexcept = default;
  Database& operator=(Database&&) noexcept = default;

  /// True if a base relation named `name` exists.
  bool Has(const std::string& name) const;

  /// The base relation `name`; an empty relation if it does not exist.
  const Relation& Get(const std::string& name) const;

  /// Inserts `t` into relation `name`, creating the relation if needed.
  /// Returns true iff the tuple was actually added (false: duplicate) —
  /// the commit pipeline builds its maintenance delta from these results.
  bool Insert(const std::string& name, Tuple t);

  /// Removes `t` from relation `name` if present. Returns true iff a tuple
  /// was actually removed.
  bool Delete(const std::string& name, const Tuple& t);

  /// Replaces the whole contents of `name`.
  void Put(const std::string& name, Relation r);

  /// Drops the base relation `name` entirely.
  void Drop(const std::string& name);

  /// Names of all base relations, sorted.
  std::vector<std::string> Names() const;

  /// Total number of stored tuples across all relations.
  size_t TotalTuples() const;

  /// A monotonically increasing counter bumped on every mutation; the
  /// evaluator uses it to invalidate memoized derived relations, and the
  /// serving layer stamps cross-transaction cached views
  /// (core/extent_cache.h) with the version of the published snapshot.
  uint64_t version() const { return version_; }

  /// Forces every arena's lazily built sorted row order so that subsequent
  /// const reads are write-free. The commit pipeline calls this before
  /// publishing a snapshot, and the parallel constraint checker before its
  /// first task: afterwards any number of readers can evaluate against the
  /// snapshot concurrently without touching a lock. Idempotent; a current
  /// order costs one version check, and one a commit made stale is
  /// repaired from its arena's erase journal — value compares only for the
  /// commit's rows (see src/data/README.md) — rather than re-sorted.
  void FreezeViews() const;

 private:
  struct Slot {
    std::shared_ptr<Relation> rel;
    /// True iff this Database instance created or cloned `rel` itself and
    /// no copy has been taken since — the only state in which in-place
    /// mutation is allowed. Mutable so that taking a snapshot copy can
    /// mark a const source shared.
    mutable bool owned = true;
  };

  /// The mutable relation of `slot`, cloning it first unless owned.
  Relation& Mutable(Slot& slot);

  std::map<std::string, Slot> relations_;
  uint64_t version_ = 0;
};

}  // namespace rel

#endif  // REL_DATA_DATABASE_H_
