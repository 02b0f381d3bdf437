#include "layers.h"

#include <filesystem>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/analysis.h"
#include "core/lowering.h"
#include "core/parser.h"
#include "datalog/eval.h"

namespace relbench {

void ReplayRead(const rel::Snapshot& snap, const std::string& source,
                const rel::LoweringStats& stats, double query_ms,
                const SpanScope& scope, OpRecord* rec) {
  Clock::time_point t0 = Clock::now();
  std::vector<std::shared_ptr<rel::Def>> defs = rel::ParseToSharedDefs(source);
  Clock::time_point t1 = Clock::now();
  std::vector<std::shared_ptr<rel::Def>> combined = *snap.rules;
  combined.insert(combined.end(), defs.begin(), defs.end());
  Clock::time_point t2 = Clock::now();
  rel::ProgramAnalysis analysis(snap.rules_analysis.get(), snap.rules->size(),
                                combined);
  Clock::time_point t3 = Clock::now();
  scope.Add("core.parser.parse", t0, t1);
  scope.Add("core.analysis.extend", t2, t3);
  const double parse_ms = MsBetween(t0, t1);
  const double extend_ms = MsBetween(t2, t3);
  rec->ms["core.parser.parse_ms"] = parse_ms;
  rec->ms["core.analysis.extend_ms"] = extend_ms;
  rec->counts["core.lowering.lowered"] += stats.components_lowered;
  rec->counts["core.lowering.rejected"] += stats.components_rejected;
  rec->counts["core.lowering.spliced_tuples"] +=
      static_cast<double>(stats.lowered_tuples);

  // Every lowered component served from the extent cache: neither lowering
  // nor the evaluator ran. Some but not all: which ones is not observable.
  if (stats.extent_cache_hits > 0 &&
      stats.extent_cache_hits != stats.components_lowered) {
    return;
  }
  double lower_ms = 0;
  double eval_ms = 0;
  bool eval_measured = true;
  // Rejected components paid a translation attempt too ("name: reason").
  for (const std::string& note : stats.rejection_notes) {
    std::string why;
    Clock::time_point a = Clock::now();
    rel::LowerComponent(note.substr(0, note.find(':')), analysis, combined,
                        &why);
    Clock::time_point b = Clock::now();
    scope.Add("core.lowering.lower", a, b);
    lower_ms += MsBetween(a, b);
  }
  if (stats.extent_cache_hits == 0) {
    std::set<std::string> has_rules;
    for (const auto& def : combined) has_rules.insert(def->name);
    std::set<int> done;
    for (const std::string& name : stats.lowered_names) {
      if (!done.insert(analysis.ComponentOf(name)).second) continue;
      std::string why;
      Clock::time_point a = Clock::now();
      std::optional<rel::LoweredComponent> lowered =
          rel::LowerComponent(name, analysis, combined, &why);
      Clock::time_point b = Clock::now();
      scope.Add("core.lowering.lower", a, b);
      lower_ms += MsBetween(a, b);
      if (!lowered) return;  // the read lowered it; the replay cannot
      // The EDB the interpreter materialized: externals' extents, then the
      // members' base facts. A derived external cannot be rebuilt here.
      for (const std::string& ext : lowered->externals) {
        if (has_rules.count(ext)) eval_measured = false;
        lowered->program.AddFacts(ext, snap.db->Get(ext));
      }
      for (const std::string& member : lowered->members) {
        if (snap.db->Has(member)) {
          lowered->program.AddFacts(member, snap.db->Get(member));
        }
      }
      if (!eval_measured) continue;
      rel::datalog::EvalOptions opts;
      opts.max_iterations = rel::InterpOptions().max_iterations;
      rel::datalog::EvalStats es;
      Clock::time_point c = Clock::now();
      rel::datalog::Evaluate(lowered->program, opts, &es);
      Clock::time_point d = Clock::now();
      scope.Add("datalog.eval", c, d);
      eval_ms += MsBetween(c, d);
      rec->counts["datalog.eval.iterations"] += es.iterations;
      rec->counts["datalog.eval.tuples_derived"] +=
          static_cast<double>(es.tuples_derived);
      rec->counts["datalog.eval.index_probes"] +=
          static_cast<double>(es.index_probes);
      rec->counts["datalog.eval.index_builds"] +=
          static_cast<double>(es.index_builds);
    }
  }
  rec->ms["core.lowering.lower_ms"] = lower_ms;
  if (!eval_measured) return;
  rec->ms["datalog.eval.eval_ms"] = eval_ms;
  rec->ms["core.interp.residual_ms"] =
      query_ms - parse_ms - extend_ms - lower_ms - eval_ms;
}

CacheCounters ReadCounters(const rel::ExtentCache& cache) {
  CacheCounters c;
  c.hits = cache.hits();
  c.misses = cache.misses();
  c.maintained = cache.maintained();
  c.restamped = cache.restamped();
  c.dropped = cache.dropped();
  const rel::datalog::EvalStats& m = cache.maintain_stats();
  c.delta_inserts = m.delta_inserts;
  c.delta_deletes = m.delta_deletes;
  c.rederived = m.rederived;
  c.delta_derived = m.tuples_derived;
  return c;
}

void AddCacheDelta(const CacheCounters& before, const CacheCounters& after,
                   OpRecord* rec) {
  auto add = [&](const char* name, uint64_t a, uint64_t b) {
    rec->counts[name] += static_cast<double>(b - a);
  };
  add("core.extent_cache.hits", before.hits, after.hits);
  add("core.extent_cache.misses", before.misses, after.misses);
  add("core.extent_cache.maintained", before.maintained, after.maintained);
  add("core.extent_cache.restamped", before.restamped, after.restamped);
  add("core.extent_cache.dropped", before.dropped, after.dropped);
  add("datalog.delta.inserts", before.delta_inserts, after.delta_inserts);
  add("datalog.delta.deletes", before.delta_deletes, after.delta_deletes);
  add("datalog.delta.rederived", before.rederived, after.rederived);
  add("datalog.delta.tuples_derived", before.delta_derived,
      after.delta_derived);
}

WalReplayer::WalReplayer(const std::string& dir) {
  ResetDir(dir);
  store_ = std::make_unique<rel::storage::Store>(
      std::make_shared<rel::storage::PosixFileSystem>(), dir,
      rel::storage::DurabilityOptions{});
  rel::storage::SnapshotData data;
  rel::storage::RecoveryReport report = store_->Recover(&data);
  if (!report.status.ok()) {
    throw std::runtime_error("replay store: " + report.status.ToString());
  }
}

void WalReplayer::Replay(const rel::DatabaseDelta& delta,
                         const SpanScope& scope, OpRecord* rec) {
  std::vector<rel::storage::WalRecord> ops;
  for (const auto& [name, change] : delta.changes) {
    for (const rel::Tuple& t : change.deleted.SortedTuples()) {
      ops.push_back(rel::storage::WalRecord::Retract(name, t));
    }
  }
  for (const auto& [name, change] : delta.changes) {
    for (const rel::Tuple& t : change.inserted.SortedTuples()) {
      ops.push_back(rel::storage::WalRecord::Fact(name, t));
    }
  }
  uint64_t txn_id = 0;
  Clock::time_point t0 = Clock::now();
  rel::Status s = store_->LogTransaction(ops, &txn_id);
  Clock::time_point t1 = Clock::now();
  if (!s.ok()) throw std::runtime_error("replay WAL: " + s.ToString());
  scope.Add("storage.wal.append", t0, t1);
  rec->ms["storage.wal.append_ms"] = MsBetween(t0, t1);
}

uint64_t WalBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("wal-", 0) == 0) {
      bytes += entry.file_size();
    }
  }
  return bytes;
}

}  // namespace relbench
