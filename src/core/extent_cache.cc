#include "core/extent_cache.h"

#include <utility>

namespace rel {

namespace {

/// The changed names of `delta` that intersect `names`, or an empty vector.
std::vector<const std::string*> RelevantChanges(const DatabaseDelta& delta,
                                                const std::set<std::string>& names) {
  std::vector<const std::string*> out;
  for (const auto& [name, change] : delta.changes) {
    if (change.inserted.empty() && change.deleted.empty()) continue;
    if (names.count(name)) out.push_back(&name);
  }
  return out;
}

}  // namespace

MaintainResult MaintainExtents(MaintainableExtents* e,
                               const DatabaseDelta& delta,
                               const datalog::EvalOptions& opts,
                               datalog::EvalStats* stats) {
  if (delta.wholesale) return MaintainResult::kUnsupported;
  std::vector<const std::string*> relevant =
      RelevantChanges(delta, e->closure);
  if (relevant.empty()) return MaintainResult::kUntouched;
  if (!e->maintainable) return MaintainResult::kUnsupported;

  datalog::EdbDelta edb;
  for (const std::string* name : relevant) {
    const DatabaseDelta::Change& change = delta.changes.at(*name);
    if (!change.inserted.empty()) edb.inserts[*name] = change.inserted;
    if (!change.deleted.empty()) edb.deletes[*name] = change.deleted;
    // Head predicates double as EDB carriers: their base facts are the
    // re-derivation support set and must track the database exactly.
    if (e->head_preds.count(*name)) {
      Relation& base = e->base_facts[*name];
      base.InsertAll(change.inserted);
      change.deleted.ForEach([&](const TupleRef& t) { base.Erase(t.ToTuple()); });
    }
  }

  datalog::DeltaResult result = datalog::EvaluateDelta(
      e->program, e->base_facts, edb, &e->extents, opts, stats, e->cache.get());
  return result.supported ? MaintainResult::kMaintained
                          : MaintainResult::kUnsupported;
}

ExtentCache::Key ExtentCache::KeyFor(const std::vector<std::string>& members) {
  Key key;
  for (const std::string& m : members) {
    key += m;
    key += '\x1f';  // cannot occur in source-level names
  }
  return key;
}

const ExtentCache::Entry* ExtentCache::Lookup(const Key& key,
                                              uint64_t db_version) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second->db_version != db_version) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second.get();
}

void ExtentCache::Store(Key key, Entry entry) {
  entries_[std::move(key)] = std::make_unique<Entry>(std::move(entry));
}

template <typename Pred>
void ExtentCache::DropIf(Pred drop) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (drop(*it->second)) {
      ++dropped_;
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

void ExtentCache::Maintain(const DatabaseDelta& delta,
                           const datalog::EvalOptions& opts) {
  DropIf([&](Entry& entry) {
    if (entry.db_version != delta.from_version) return true;
    MaintainResult result = MaintainResult::kUnsupported;
    try {
      result = MaintainExtents(&entry.ext, delta, opts, &maintain_stats_);
    } catch (...) {
      // The extents, base facts and IndexCache may be half-mutated: drop
      // the entry. The next query recomputes and raises the error itself.
      return true;
    }
    if (result == MaintainResult::kUnsupported) return true;
    ++(result == MaintainResult::kMaintained ? maintained_ : restamped_);
    entry.db_version = delta.to_version;
    return false;
  });
}

void ExtentCache::Retain(uint64_t db_version) {
  DropIf([&](const Entry& entry) { return entry.db_version != db_version; });
}

void ExtentCache::ClearAffected(const std::set<std::string>& names) {
  DropIf([&](const Entry& entry) {
    for (const std::string& n : entry.ext.closure) {
      if (names.count(n)) return true;
    }
    return false;
  });
}

}  // namespace rel
