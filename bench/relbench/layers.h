// Per-layer attribution for the traced run, measured from outside the
// library: after an op's timed call returns, its own input is replayed
// through each layer's public function on the same pinned snapshot, so a
// replay never enters the op's timing. A replay that cannot rebuild its
// input (a lowered component whose EDB includes a derived relation, or a
// read whose components were only partly served from the extent cache)
// leaves that layer unmeasured for the op rather than estimating it.

#ifndef RELBENCH_LAYERS_H_
#define RELBENCH_LAYERS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common.h"
#include "core/engine.h"
#include "storage/store.h"

namespace relbench {

/// Replays a read's source through the parser, the analysis extension,
/// lowering and the Datalog evaluator against `snap`, and records
/// core.parser.parse_ms, core.analysis.extend_ms, core.lowering.lower_ms,
/// datalog.eval.eval_ms (+ its EvalStats counters) and, when every part was
/// measured, core.interp.residual_ms = query_ms minus those four. `stats`
/// is the read's own LoweringStats; `query_ms` its measured Session::Query
/// time. Also records the core.lowering.* counters from `stats`.
void ReplayRead(const rel::Snapshot& snap, const std::string& source,
                const rel::LoweringStats& stats, double query_ms,
                const SpanScope& scope, OpRecord* rec);

/// Counters of one extent cache, for before/after differences around an op.
struct CacheCounters {
  uint64_t hits = 0, misses = 0, maintained = 0, restamped = 0, dropped = 0;
  uint64_t delta_inserts = 0, delta_deletes = 0, rederived = 0,
           delta_derived = 0;
};
CacheCounters ReadCounters(const rel::ExtentCache& cache);

/// Adds after - before of the extent-cache counters (core.extent_cache.*)
/// and of the incremental-evaluation counters (datalog.delta.*) to `rec`.
void AddCacheDelta(const CacheCounters& before, const CacheCounters& after,
                   OpRecord* rec);

/// A separate durable store with the workload's durability options: the
/// WAL layer's replay target.
class WalReplayer {
 public:
  /// Creates (emptying first) the store directory `dir`.
  explicit WalReplayer(const std::string& dir);

  /// Logs the records of one committed transaction — `delta`'s retracts
  /// and facts — and records storage.wal.append_ms.
  void Replay(const rel::DatabaseDelta& delta, const SpanScope& scope,
              OpRecord* rec);

 private:
  std::unique_ptr<rel::storage::Store> store_;
};

/// Total size in bytes of the WAL files in store directory `dir`.
uint64_t WalBytes(const std::string& dir);

}  // namespace relbench

#endif  // RELBENCH_LAYERS_H_
