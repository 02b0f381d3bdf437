// Session: a client's handle onto a shared Engine — the unit of
// snapshot-isolated concurrency (ROADMAP item 2's serving half).
//
// The Engine publishes an immutable Snapshot (database + persistent rules)
// at every commit boundary. A Session pins one Snapshot and runs all reads
// against it: Query/Eval never take a lock, never see a concurrent writer's
// partial state, and return byte-identical answers for the lifetime of the
// pin no matter how many transactions commit elsewhere. Refresh() advances
// the pin to the newest published snapshot; a successful write through the
// session re-pins automatically (read-your-writes).
//
// Writes (Exec/Define/Insert/DeleteTuples) funnel into the Engine's
// single-writer commit pipeline: apply → integrity check → WAL → atomic
// publish (see engine.h). There is no optimistic concurrency — writers
// serialize — so a Session write always executes against the newest
// committed state, not against the session's pinned snapshot.
//
// Threading: one Session = one client. A Session must be used from one
// thread at a time (its extent cache and pin are unsynchronized); any
// number of Sessions may run concurrently against the same Engine.

#ifndef REL_CORE_SESSION_H_
#define REL_CORE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "core/extent_cache.h"
#include "core/interp.h"
#include "data/database.h"

namespace rel {

class Engine;
struct TxnResult;

/// An immutable, atomically-published view of the engine: the database as
/// of one commit boundary plus the persistent rule set in force then.
/// Pinning is two shared_ptr copies; the snapshot stays valid as long as
/// any holder keeps it, independent of later commits.
struct Snapshot {
  std::shared_ptr<const Database> db;
  std::shared_ptr<const std::vector<std::shared_ptr<Def>>> rules;
  /// Dependency/SCC analysis of `rules`, computed once by the writer;
  /// readers extend it with their query-local defs (InterpOptions::
  /// shared_analysis) instead of re-analyzing the prelude per query.
  std::shared_ptr<const ProgramAnalysis> rules_analysis;
  /// Bumped on every Define; a session re-pinning across a change
  /// invalidates the cached views the new rules can affect.
  uint64_t rules_version = 0;
  /// WAL id of the last durable transaction included (0 when the engine is
  /// not attached to storage or nothing has committed durably yet).
  uint64_t txn_id = 0;
  /// Bumped when the database is replaced wholesale (AttachStorage recovery)
  /// rather than mutated — guards sessions against composing deltas across
  /// unrelated version timelines.
  uint64_t db_epoch = 0;
  /// The most recent commit deltas (oldest first), ending at this snapshot.
  /// A session re-pinning from version V finds the suffix starting at V and
  /// maintains its cache delta-by-delta instead of discarding it; if V has
  /// already scrolled out of the window it falls back to dropping.
  std::vector<std::shared_ptr<const DatabaseDelta>> recent_deltas;

  uint64_t version() const { return db->version(); }
};

class Session {
 public:
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // --- snapshot control ---

  /// Re-pins the newest published snapshot (see Adopt for the cache
  /// upkeep). Never fails because a cached view cannot be maintained: that
  /// view is dropped, and the next query recomputes it — raising any error
  /// the recomputation raises, exactly as a fresh session would.
  void Refresh();

  /// The pinned snapshot (stable until Refresh or a successful write).
  const Snapshot& snapshot() const { return *snap_; }
  uint64_t snapshot_version() const { return snap_->version(); }
  uint64_t snapshot_txn() const { return snap_->txn_id; }

  // --- reads: lock-free against the pinned snapshot ---

  /// Runs `source` as a read-only transaction against the pinned snapshot
  /// and returns its `output` relation. insert/delete rules are ignored.
  Relation Query(const std::string& source);

  /// Evaluates a single expression — sugar for
  /// Query("def output : " + expression); both run against one pinned
  /// snapshot for their whole duration.
  Relation Eval(const std::string& expression);

  /// Read access to a base relation of the pinned snapshot ({} if absent).
  /// The reference stays valid while this session holds the pin.
  const Relation& Base(const std::string& name) const;

  /// The pinned snapshot's database (valid while the pin is held).
  const Database& db() const { return *snap_->db; }

  // --- writes: funnel into the engine's single-writer commit pipeline ---

  /// Runs `source` as a full transaction through the commit pipeline.
  /// On success the session re-pins the published post-commit snapshot;
  /// on abort (constraint violation, WAL failure) the pin is unchanged.
  TxnResult Exec(const std::string& source);

  /// Installs persistent rules engine-wide and re-pins.
  void Define(const std::string& source);

  /// Bulk base-relation updates through the pipeline (no constraint check,
  /// matching Engine::Insert/DeleteTuples); re-pins on success.
  void Insert(const std::string& name, const std::vector<Tuple>& tuples);
  void DeleteTuples(const std::string& name, const std::vector<Tuple>& tuples);

  // --- knobs and introspection ---

  /// Per-session evaluation options (seeded from the engine's at open).
  InterpOptions& options() { return options_; }

  /// Lowering counters of this session's most recent Query/Eval/Exec.
  const LoweringStats& last_lowering_stats() const { return lowering_stats_; }

  /// The session's cache of maintained views: lowered-component fixpoints,
  /// carried across re-pins (see core/extent_cache.h).
  const ExtentCache& extent_cache() const { return extent_cache_; }

 private:
  friend class Engine;

  Session(Engine* engine, std::shared_ptr<const Snapshot> snap,
          InterpOptions options);

  /// Adopts a (newer) snapshot as the pin and brings the extent cache along
  /// under its contract: ClearAffected on a rule append (Clear on any other
  /// rule change), then Maintain along the published delta chain from the
  /// old pin to the new one — or Clear when that chain cannot be walked
  /// (pin older than the window, or a new database epoch).
  void Adopt(std::shared_ptr<const Snapshot> snap);

  Engine* engine_;
  std::shared_ptr<const Snapshot> snap_;
  InterpOptions options_;
  ExtentCache extent_cache_;
  LoweringStats lowering_stats_;
};

}  // namespace rel

#endif  // REL_CORE_SESSION_H_
