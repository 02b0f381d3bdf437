// ExtentCache: the one cache of maintained views — derived state that
// survives updates.
//
// The recursion lowering evaluates a qualifying Rel component on the planned
// Datalog engine; this cache hoists the resulting fixpoint out of the
// transaction's Interp and, where possible, *maintains* it under
// base-relation deltas instead of recomputing:
//
//   * insert → resume semi-naive evaluation with the inserted tuples as the
//     delta against the cached fixpoint (datalog::EvaluateDelta);
//   * delete → DRed: over-delete everything derivable from the deleted
//     tuples, then re-derive what has alternative support;
//   * unsupported shapes (negation over an affected predicate, wholesale
//     Put/Drop) → the entry is dropped and the next transaction recomputes.
//
// Each entry is one whole lowered component, keyed by KeyFor(members). A
// bound read of a member (tc(0, y)) takes the same entry: the maintained
// view of Berkholz et al. is the full extent, and the solver's enumeration
// selects the bound rows from it.
//
// The contract, identical for every owner (the Engine's writer side, or a
// Session; one cache per owner, externally synchronized, never shared). An
// entry is a pure function of (shared persistent rules, database version):
// Interps only use it for names whose rule closure is transaction-local-free
// (Interp::SharedRulesOnly), and each entry is stamped with the
// Database::version() it is valid for. The owner keeps stamps meaningful:
//
//   * Maintain(delta) walking forward along the commit pipeline's
//     DatabaseDelta chain (writer: inside ExecTxn/ApplyBulk; sessions:
//     Snapshot::recent_deltas on Adopt);
//   * ClearAffected(names) when rules are appended (a new def only kills
//     the entries whose closure can read it);
//   * Retain(v) on writer rollback — an aborted transaction's working
//     versions are re-issued by later commits with different content, and
//     maintenance mutates entries in place, so they can only be discarded;
//   * Clear() when a session cannot walk the delta chain (its pin scrolled
//     out of the window, or recovery started a new version timeline whose
//     numbers alias the old one's).
//
// Maintenance is failure-atomic per entry: an entry whose maintenance throws
// may be half-mutated (extents, base facts, IndexCache repairs), so it is
// dropped and the next query recomputes — and raises the error itself,
// exactly as a fresh session would.
//
// The correctness bar: maintained extents are byte-identical to the
// from-scratch fixpoint at the new version (pinned by tests/core/
// maintain_test.cc and the update-stream fuzzer differentially against
// full recomputation).

#ifndef REL_CORE_EXTENT_CACHE_H_
#define REL_CORE_EXTENT_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "data/database.h"
#include "data/relation.h"
#include "datalog/eval.h"
#include "datalog/index.h"
#include "datalog/program.h"

namespace rel {

/// A cached Datalog fixpoint plus everything needed to move it forward
/// under a DatabaseDelta.
struct MaintainableExtents {
  /// The program whose fixpoint `extents` is: its rules only. Evaluation
  /// took its facts as the starting extents, so the EDB lives in `extents`
  /// alone.
  datalog::Program program;
  /// The full fixpoint: every EDB and IDB predicate's extent, mutated in
  /// place by maintenance. Map nodes (and so arena addresses) are stable;
  /// the persistent IndexCache below depends on that.
  std::map<std::string, Relation> extents;
  /// Post-version base facts of predicates that are BOTH rule heads and
  /// database base relations (DRed re-derivation support; see
  /// datalog::EvaluateDelta's base_facts contract). Updated in lockstep
  /// with the delta.
  std::map<std::string, Relation> base_facts;
  /// Rule-head predicates of `program` that are database relation names
  /// (the ones whose base_facts must track deltas).
  std::set<std::string> head_preds;
  /// Database relation names feeding the program's EDB — the names whose
  /// DatabaseDelta changes translate into an EdbDelta.
  std::set<std::string> base_names;
  /// Rel-level name closure of the component (members, externals, and
  /// everything reachable from their rules). The relevance filter: a delta
  /// touching none of these leaves the extents valid as-is.
  std::set<std::string> closure;
  /// False when the extents cannot be maintained (an external with rules:
  /// its EDB snapshot is a derived value a base delta changes opaquely).
  /// Such entries survive irrelevant deltas but drop on relevant ones.
  bool maintainable = false;
  /// Persistent across maintenance calls, so an index over a maintained
  /// extent repairs itself from the extent's erase journal — inserts and
  /// deletes alike, O(delta) — instead of rebuilding
  /// (EvalStats::index_repairs; index_builds stays flat after warm-up).
  /// unique_ptr: IndexCache holds mutexes and cannot move.
  std::unique_ptr<datalog::IndexCache> cache =
      std::make_unique<datalog::IndexCache>();
};

enum class MaintainResult {
  kUntouched,    // delta does not intersect the closure: extents valid as-is
  kMaintained,   // extents moved to the delta's post-state incrementally
  kUnsupported,  // cannot maintain: caller must drop the entry
};

/// Moves `e` forward under `delta`. kUnsupported when the delta is
/// wholesale, touches the closure of a non-maintainable entry, or hits a
/// shape EvaluateDelta rejects. `stats`, when non-null, accumulates the
/// incremental evaluation's counters.
MaintainResult MaintainExtents(MaintainableExtents* e,
                               const DatabaseDelta& delta,
                               const datalog::EvalOptions& opts,
                               datalog::EvalStats* stats);

/// Per-owner cache of maintained views, keyed by component and stamped
/// with a database version. Externally synchronized; see the header comment
/// for the ownership and invalidation contract.
class ExtentCache {
 public:
  /// KeyFor(members) of a lowered component.
  using Key = std::string;

  struct Entry {
    uint64_t db_version = 0;
    MaintainableExtents ext;
  };

  /// The key for the component whose sorted members are `members`.
  static Key KeyFor(const std::vector<std::string>& members);

  /// The entry for `key` valid at exactly `db_version`, or nullptr. Counts
  /// a hit or a miss.
  const Entry* Lookup(const Key& key, uint64_t db_version);

  /// Stores (replacing any previous entry for `key`).
  void Store(Key key, Entry entry);

  /// Moves every entry at delta.from_version to delta.to_version —
  /// incrementally where the delta is relevant, by re-stamping where it is
  /// not — and drops entries that cannot follow (stale version, wholesale
  /// delta, unmaintainable shape, or a maintenance pass that threw). Never
  /// throws for a single entry's failure. `opts` configures the incremental
  /// evaluation (LoweredEvalOptions of the owner's InterpOptions).
  void Maintain(const DatabaseDelta& delta, const datalog::EvalOptions& opts);

  /// Drops every entry whose closure intersects `names` (rule-set changes:
  /// a new def for a name only invalidates the views that can read it).
  void ClearAffected(const std::set<std::string>& names);

  /// Drops every entry not stamped `db_version` — the rollback hook.
  void Retain(uint64_t db_version);

  void Clear() { entries_.clear(); }

  size_t size() const { return entries_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t maintained() const { return maintained_; }
  uint64_t restamped() const { return restamped_; }
  uint64_t dropped() const { return dropped_; }
  /// Accumulated counters of every incremental evaluation this cache ran
  /// (delta_inserts / delta_deletes / rederived / index_repairs ...).
  const datalog::EvalStats& maintain_stats() const { return maintain_stats_; }

 private:
  /// Drops every entry for which `drop` holds, counting each in dropped_.
  template <typename Pred>
  void DropIf(Pred drop);

  /// unique_ptr: entries hold an IndexCache whose indexes point into the
  /// entry's own extents — neither may move after Store.
  std::map<Key, std::unique_ptr<Entry>> entries_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t maintained_ = 0;
  uint64_t restamped_ = 0;
  uint64_t dropped_ = 0;
  datalog::EvalStats maintain_stats_;
};

}  // namespace rel

#endif  // REL_CORE_EXTENT_CACHE_H_
