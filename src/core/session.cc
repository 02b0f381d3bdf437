#include "core/session.h"

#include <set>
#include <utility>

#include "core/engine.h"
#include "core/parser.h"

namespace rel {

namespace {

/// True when `next` is a pure extension of `prev` (same shared defs, in
/// order, plus appended ones); fills `added` with the appended names.
bool RulesExtended(const std::vector<std::shared_ptr<Def>>& prev,
                   const std::vector<std::shared_ptr<Def>>& next,
                   std::set<std::string>* added) {
  if (next.size() < prev.size()) return false;
  for (size_t i = 0; i < prev.size(); ++i) {
    if (next[i] != prev[i]) return false;
  }
  for (size_t i = prev.size(); i < next.size(); ++i) {
    added->insert(next[i]->name);
  }
  return true;
}

}  // namespace

Session::Session(Engine* engine, std::shared_ptr<const Snapshot> snap,
                 InterpOptions options)
    : engine_(engine), snap_(std::move(snap)), options_(std::move(options)) {}

Session::~Session() = default;

void Session::Refresh() { Adopt(engine_->SnapshotNow()); }

void Session::Adopt(std::shared_ptr<const Snapshot> snap) {
  if (snap == nullptr || snap == snap_) return;

  if (snap->rules_version != snap_->rules_version) {
    std::set<std::string> added;
    if (RulesExtended(*snap_->rules, *snap->rules, &added)) {
      // Define only ever appends: a new rule invalidates exactly the cached
      // views whose closure can read one of the new names — the rest were
      // derived from relations the new rules cannot reach and keep serving
      // hits.
      extent_cache_.ClearAffected(added);
    } else {
      extent_cache_.Clear();
    }
  }

  // Database maintenance: walk the published commit-delta chain from the
  // pinned version to the new head, moving the cache along incrementally
  // (O(|delta cone|) per entry per commit). A pin that predates the chain
  // window — or a wholesale database swap (epoch bump, whose version
  // numbers alias the old timeline's) — falls back to dropping everything.
  if (snap->db_epoch == snap_->db_epoch && snap->version() == snap_->version()) {
    // Same database state; every cached version stamp is still the pin.
  } else {
    bool walked = snap->db_epoch == snap_->db_epoch;
    if (walked) {
      const datalog::EvalOptions eval_opts = LoweredEvalOptions(options_);
      uint64_t at = snap_->version();
      const auto& chain = snap->recent_deltas;
      size_t i = 0;
      while (i < chain.size() && chain[i]->from_version != at) ++i;
      if (i == chain.size()) walked = false;
      for (; walked && i < chain.size() && at != snap->version(); ++i) {
        const DatabaseDelta& delta = *chain[i];
        if (delta.db_epoch != snap->db_epoch || delta.from_version != at) {
          walked = false;
          break;
        }
        extent_cache_.Maintain(delta, eval_opts);
        at = delta.to_version;
      }
      if (at != snap->version()) walked = false;
    }
    if (!walked) extent_cache_.Clear();
  }
  snap_ = std::move(snap);
}

Relation Session::Query(const std::string& source) {
  // The whole read runs against the pinned snapshot: parse the source as
  // transaction-local rules appended to the snapshot's persistent prefix,
  // evaluate `output`, and never look at the engine's live state.
  std::vector<std::shared_ptr<Def>> combined = *snap_->rules;
  for (auto& def : ParseToSharedDefs(source)) combined.push_back(std::move(def));

  InterpOptions opts = options_;
  opts.shared_defs = snap_->rules->size();
  opts.extent_cache = &extent_cache_;
  opts.shared_analysis = snap_->rules_analysis.get();
  Interp interp(snap_->db.get(), std::move(combined), opts);
  Relation out;
  if (interp.HasDefs("output")) {
    out = interp.EvalInstance("output", 0, {});
  }
  lowering_stats_ = interp.lowering_stats();
  return out;
}

Relation Session::Eval(const std::string& expression) {
  return Query("def output : " + expression);
}

const Relation& Session::Base(const std::string& name) const {
  return snap_->db->Get(name);
}

TxnResult Session::Exec(const std::string& source) {
  std::shared_ptr<const Snapshot> published;
  TxnResult result =
      engine_->ExecTxn(source, options_, &lowering_stats_, &published);
  Adopt(std::move(published));  // read-your-writes
  return result;
}

void Session::Define(const std::string& source) {
  std::shared_ptr<const Snapshot> published;
  engine_->DefineTxn(source, /*internal=*/false, &published);
  Adopt(std::move(published));
}

void Session::Insert(const std::string& name,
                     const std::vector<Tuple>& tuples) {
  std::shared_ptr<const Snapshot> published;
  engine_->ApplyBulk(name, tuples, /*is_insert=*/true, options_, &published);
  Adopt(std::move(published));
}

void Session::DeleteTuples(const std::string& name,
                           const std::vector<Tuple>& tuples) {
  std::shared_ptr<const Snapshot> published;
  engine_->ApplyBulk(name, tuples, /*is_insert=*/false, options_, &published);
  Adopt(std::move(published));
}

}  // namespace rel
