#include "core/interp.h"

#include <algorithm>

#include "base/error.h"
#include "core/extent_cache.h"
#include "core/lowering.h"
#include "datalog/eval.h"

namespace rel {

namespace {

int CompareRelations(const Relation& a, const Relation& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  std::vector<Tuple> ta = a.SortedTuples();
  std::vector<Tuple> tb = b.SortedTuples();
  for (size_t i = 0; i < ta.size(); ++i) {
    int c = ta[i].Compare(tb[i]);
    if (c != 0) return c;
  }
  return 0;
}

int CompareEnvs(const Env& a, const Env& b);

int CompareSOValues(const SOValue& a, const SOValue& b) {
  auto rank = [](const SOValue& v) {
    if (v.IsMaterialized()) return 0;
    if (v.IsBuiltin()) return 1;
    if (v.IsClosure()) return 2;
    return 3;
  };
  if (rank(a) != rank(b)) return rank(a) < rank(b) ? -1 : 1;
  if (a.IsMaterialized()) return CompareRelations(*a.rel, *b.rel);
  if (a.IsBuiltin()) {
    if (a.builtin == b.builtin) return 0;
    return a.builtin->name() < b.builtin->name() ? -1 : 1;
  }
  if (a.IsClosure()) {
    if (a.expr.get() != b.expr.get()) {
      return a.expr.get() < b.expr.get() ? -1 : 1;
    }
    bool ea = a.env != nullptr, eb = b.env != nullptr;
    if (ea != eb) return ea < eb ? -1 : 1;
    if (!ea) return 0;
    return CompareEnvs(*a.env, *b.env);
  }
  return 0;
}

template <typename Map, typename Cmp>
int CompareMaps(const Map& a, const Map& b, Cmp cmp) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first) return ia->first < ib->first ? -1 : 1;
    int c = cmp(ia->second, ib->second);
    if (c != 0) return c;
  }
  return 0;
}

int CompareEnvs(const Env& a, const Env& b) {
  int c = CompareMaps(a.vars, b.vars, [](const Value& x, const Value& y) {
    return x.Compare(y);
  });
  if (c != 0) return c;
  c = CompareMaps(a.tuples, b.tuples, [](const Tuple& x, const Tuple& y) {
    return x.Compare(y);
  });
  if (c != 0) return c;
  return CompareMaps(a.rels, b.rels, CompareSOValues);
}

}  // namespace

bool Interp::InstanceKey::operator<(const InstanceKey& other) const {
  if (name != other.name) return name < other.name;
  if (sig != other.sig) return sig < other.sig;
  if (so_args.size() != other.so_args.size()) {
    return so_args.size() < other.so_args.size();
  }
  for (size_t i = 0; i < so_args.size(); ++i) {
    int c = CompareSOValues(so_args[i], other.so_args[i]);
    if (c != 0) return c < 0;
  }
  return false;
}

Interp::Interp(const Database* db, std::vector<std::shared_ptr<Def>> defs,
               InterpOptions options)
    : db_(db),
      all_defs_(std::move(defs)),
      analysis_(options.shared_analysis, options.shared_defs, all_defs_),
      options_(options),
      solver_(this) {
  for (const auto& def : all_defs_) {
    if (def->is_ic) {
      ics_.push_back(def);
    } else {
      defs_[def->name][Solver::CountSOParams(*def)].push_back(def);
    }
  }
  // Everything past the shared prefix was parsed from this transaction's
  // source; a component that (transitively) reads any of these names is
  // transaction-local and must not enter the cross-transaction cache.
  for (size_t i = options_.shared_defs; i < all_defs_.size(); ++i) {
    txn_local_names_.insert(all_defs_[i]->name);
  }
}

bool Interp::SharedRulesOnly(const std::string& name) {
  auto memo = shared_rules_only_.find(name);
  if (memo != shared_rules_only_.end()) return memo->second;
  // Reachability over the name-level dependency graph: `name` and every
  // def it can read must come from the shared rule prefix. Base relations
  // (names with no rules) are covered by the entry's version stamp.
  bool cacheable = true;
  std::set<std::string> seen{name};
  std::vector<std::string> work{name};
  while (!work.empty()) {
    std::string cur = std::move(work.back());
    work.pop_back();
    if (txn_local_names_.count(cur)) {
      cacheable = false;
      break;
    }
    for (const std::string& ref : analysis_.References(cur)) {
      if (seen.insert(ref).second) work.push_back(ref);
    }
  }
  shared_rules_only_[name] = cacheable;
  return cacheable;
}

std::set<std::string> Interp::ReferencesClosure(const std::string& name) const {
  std::set<std::string> seen{name};
  std::vector<std::string> work{name};
  while (!work.empty()) {
    std::string cur = std::move(work.back());
    work.pop_back();
    for (const std::string& ref : analysis_.References(cur)) {
      if (seen.insert(ref).second) work.push_back(ref);
    }
  }
  return seen;
}

void Interp::FillMaintainInfo(const LoweredComponent& lowered,
                              const std::string& name,
                              MaintainableExtents* out) {
  // Members are one SCC (mutually reachable), so the closure from any one
  // of them covers them all plus everything their rules can read.
  out->closure = ReferencesClosure(name);
  // Aggregate-bearing programs are not incrementally maintainable:
  // datalog::EvaluateDelta refuses them (a delta row can shrink no bucket,
  // but a deletion can), so the cache owner must recompute instead.
  out->maintainable = !lowered.program.HasAggregates();
  for (const std::string& ext : lowered.externals) {
    out->base_names.insert(ext);
    if (HasDefs(ext)) out->maintainable = false;
  }
  for (const std::string& member : lowered.members) {
    out->base_names.insert(member);
    out->head_preds.insert(member);
    if (db_->Has(member)) out->base_facts[member] = db_->Get(member);
  }
}

bool Interp::HasDefs(const std::string& name) const {
  return defs_.count(name) > 0;
}

const std::vector<std::shared_ptr<Def>>& Interp::DefsOf(
    const std::string& name, size_t sig) const {
  static const std::vector<std::shared_ptr<Def>>* empty =
      new std::vector<std::shared_ptr<Def>>();
  auto it = defs_.find(name);
  if (it == defs_.end()) return *empty;
  auto sit = it->second.find(sig);
  if (sit == it->second.end()) return *empty;
  return sit->second;
}

size_t Interp::ResolveSig(const std::string& name,
                          const std::vector<Arg>& args) const {
  auto it = defs_.find(name);
  if (it == defs_.end()) return 0;
  std::set<size_t> candidates;
  for (const auto& [sig, rules] : it->second) {
    (void)rules;
    if (sig <= args.size()) candidates.insert(sig);
  }
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i].annotation == Annotation::kSecondOrder) {
      // Position i is second-order: the signature must cover it.
      for (auto cit = candidates.begin(); cit != candidates.end();) {
        if (*cit <= i) {
          cit = candidates.erase(cit);
        } else {
          ++cit;
        }
      }
    } else if (args[i].annotation == Annotation::kFirstOrder) {
      for (auto cit = candidates.begin(); cit != candidates.end();) {
        if (*cit > i) {
          cit = candidates.erase(cit);
        } else {
          ++cit;
        }
      }
    }
  }
  if (candidates.size() == 1) return *candidates.begin();
  if (candidates.empty()) {
    throw RelError(ErrorKind::kArity,
                   "no definition of '" + name +
                       "' matches this application (check the number of "
                       "relation arguments)");
  }
  throw RelError(ErrorKind::kAmbiguous,
                 "application of '" + name +
                     "' matches both first-order and second-order "
                     "definitions; disambiguate with ?{..} or &{..}");
}

const Relation& Interp::EvalInstance(const std::string& name, size_t sig,
                                     const std::vector<SOValue>& so_args) {
  InstanceKey key{name, sig, so_args};
  return EvalInstanceImpl(key);
}

const Relation& Interp::EvalInstanceImpl(const InstanceKey& key) {
  auto [it, inserted] = instances_.try_emplace(key);
  Instance& inst = it->second;
  if (inserted &&
      instances_.size() > static_cast<size_t>(options_.max_instances)) {
    throw RelError(ErrorKind::kNonConvergent,
                   "too many relation instances (runaway specialization of '" +
                       key.name + "'?)");
  }
  if (inst.failed_safety) {
    throw RelError(ErrorKind::kSafety, inst.failure_message);
  }
  if (inst.done) return inst.value;
  // Recursive reference into a running unit: hand out the member's value
  // from the last round, and record how deep the reader now depends.
  auto partial_read = [&]() -> const Relation& {
    ++partial_reads_;
    units_.back().low = std::min(units_.back().low, size_t(inst.unit));
    return inst.value;
  };
  if (inst.unit >= 0) return partial_read();

  const auto& rules = DefsOf(key.name, key.sig);
  if (rules.empty()) {
    if (key.sig == 0) inst.value = db_->Get(key.name);
    inst.done = true;
    return inst.value;
  }
  const bool recursive = analysis_.IsRecursive(key.name);
  const bool replacement = analysis_.UsesReplacement(key.name);
  const int comp = analysis_.ComponentOf(key.name);
  // A member starts from its base facts (accumulate) or from ∅.
  auto start = [&](size_t unit) {
    inst.value = key.sig == 0 && !replacement ? db_->Get(key.name) : Relation();
    inst.unit = static_cast<int>(unit);
  };

  // An instance of a component whose unit is running joins it: the unit
  // gives it a pass in every round from the current one on.
  for (size_t u = 0; recursive && u < units_.size(); ++u) {
    if (units_[u].comp != comp) continue;
    start(u);
    units_[u].members.push_back(it);
    return partial_read();
  }

  // Fast path: components that fit the classical Datalog fragment evaluate
  // on the planned, indexed semi-naive engine (src/core/lowering.h) — same
  // least fixpoint, set-at-a-time. Three shapes qualify: monotone recursive
  // components; aggregation-recursive components (replacement mode whose
  // non-monotone self-references all flow through aggregation inputs — the
  // engine's monotone aggregate semi-naive computes the same fixpoint, and
  // its qualification checks throw the component back here otherwise); and
  // non-recursive first-order defs that aggregate (so matmul-style sums run
  // planned too). A recursive instance with relation arguments (stdlib
  // TC[E]) lowers the same way, its arguments becoming EDB. On success every
  // member instance of the component (including this one) is already
  // finished; on failure fall through to the saturation loop unchanged.
  const bool lowerable =
      recursive ? (!replacement || analysis_.AggregationRecursive(key.name))
                : key.so_args.empty() && analysis_.UsesAggregation(key.name);
  if (options_.lower_recursion && lowerable && TryLowerComponent(key)) {
    InternalCheck(inst.done, "lowered component missing its own instance");
    return inst.value;
  }

  // Open a unit. Each round runs one pass per member, every pass reading
  // the previous round's values (R_{k+1} = base ∪ F(R_k); accumulate adds
  // R_k), then publishes all members at once; a round that changes nothing
  // ends it. A non-recursive instance runs exactly one pass.
  const size_t self = units_.size();
  units_.push_back(Unit{comp, {it}, self});
  start(self);
  // Members are final unless a pass read a still-running enclosing unit:
  // then they serve this request only, and that unit inherits the read.
  auto close = [&](bool converged) {
    const size_t low = units_[self].low;
    for (auto member : units_[self].members) {
      member->second.unit = -1;
      member->second.done = converged && low == self;
    }
    units_.pop_back();
    if (low < self) units_.back().low = std::min(units_.back().low, low);
  };
  try {
    for (int round = 0;; ++round) {
      if (round > options_.max_iterations) {
        // Hitting the cap must surface as a diagnostic error naming the
        // offending component — never as a silently partial extent (the
        // next request opens a fresh unit).
        std::string component;
        for (const std::string& m : analysis_.ComponentMembers(key.name)) {
          component += (component.empty() ? "" : ", ") + m;
        }
        throw RelError(
            ErrorKind::kNonConvergent,
            "fixpoint for '" + key.name + "' (recursive component {" +
                component + "}, " +
                (replacement ? "replacement" : "accumulate") +
                " mode) did not converge within max_iterations = " +
                std::to_string(options_.max_iterations) +
                "; the partial extent is discarded");
      }
      // Members that join during the round get their pass in it too.
      std::vector<Relation> next;
      for (size_t m = 0; m < units_[self].members.size(); ++m) {
        const InstanceKey& member = units_[self].members[m]->first;
        ++instance_passes_;
        Relation derived;
        if (member.sig == 0 && replacement) derived = db_->Get(member.name);
        for (const auto& def : DefsOf(member.name, member.sig)) {
          derived.InsertAll(solver_.EvalRule(*def, member.so_args, nullptr));
        }
        next.push_back(std::move(derived));
      }
      bool changed = false;
      for (size_t m = 0; m < next.size(); ++m) {
        Relation& value = units_[self].members[m]->second.value;
        const size_t before = value.size();
        if (!replacement) {
          value.InsertAll(next[m]);
          changed |= value.size() != before;
        } else if (!(next[m] == value)) {
          value = std::move(next[m]);
          changed = true;
        }
      }
      if (!recursive || !changed) break;
    }
  } catch (const RelError& err) {
    close(false);
    if (err.kind() == ErrorKind::kSafety) {
      inst.failed_safety = true;
      inst.failure_message = err.what();
    }
    throw;
  }
  close(true);
  return inst.value;
}

datalog::EvalOptions LoweredEvalOptions(const InterpOptions& options) {
  datalog::EvalOptions eval_options;
  eval_options.strategy = datalog::Strategy::kSemiNaive;
  eval_options.num_threads = options.num_threads;
  // InterpOptions treats any cap as strict (0 still allows one iteration),
  // while 0 means unbounded to the Datalog engine — clamp to at least 1 so
  // a zero cap can never turn into an infinite lowered fixpoint.
  eval_options.max_iterations = std::max(options.max_iterations, 1);
  eval_options.plan_order_seed = options.plan_order_seed;
  return eval_options;
}

std::optional<LoweredComponent> Interp::BuildLoweredProgram(
    const std::string& name, const std::vector<SOValue>& so_args) {
  int comp = analysis_.ComponentOf(name);
  if (comp < 0 || lowering_failed_components_.count(comp)) {
    return std::nullopt;
  }
  // Declines this instance only; the component may lower for another.
  auto decline =
      [&](const std::string& reason) -> std::optional<LoweredComponent> {
    ++lowering_stats_.components_rejected;
    lowering_stats_.rejection_notes.push_back(name + ": " + reason);
    return std::nullopt;
  };
  auto reject =
      [&](const std::string& reason) -> std::optional<LoweredComponent> {
    lowering_failed_components_.insert(comp);
    return decline(reason);
  };

  std::string why;
  std::optional<LoweredComponent> lowered =
      LowerComponent(name, analysis_, defs_, &why, so_args.size());
  if (!lowered) return reject(why);

  // EDB: the relation arguments, the extents of every out-of-component
  // dependency, then the members' own base facts. A defined external is
  // evaluated through the normal instance machinery, so a qualifying
  // dependency component lowers first; a base external is read straight
  // from the database, with no instance-table copy. The lowered extents are
  // final, so none of this may read an in-progress fixpoint value.
  const uint64_t partial_before = partial_reads_;
  for (size_t i = 0; i < so_args.size(); ++i) {
    try {
      lowered->program.AddFacts(lowered->arg_preds[i],
                                MaterializeSO(so_args[i]));
    } catch (const RelError& err) {
      // A builtin or otherwise infinite argument has no EDB; the solver may
      // still inline it at use sites. Any other error is the saturation
      // loop's to raise, or not, exactly as without lowering.
      return decline("relation argument " + std::to_string(i + 1) + ": " +
                     err.what());
    }
  }
  try {
    for (const std::string& ext : lowered->externals) {
      lowered->program.AddFacts(
          ext, HasDefs(ext) ? EvalInstance(ext, 0, {}) : db_->Get(ext));
    }
  } catch (const RelError& err) {
    // An unsafe external (e.g. a stdlib arithmetic wrapper) has no finite
    // standalone extent; the solver's use-site inlining may still evaluate
    // the component, so fall back instead of failing.
    if (err.kind() != ErrorKind::kSafety) throw;
    return reject(std::string("unsafe external: ") + err.what());
  }
  if (partial_reads_ != partial_before) {
    return decline("input read an in-progress fixpoint");
  }
  for (const std::string& member : lowered->members) {
    if (so_args.empty() && db_->Has(member)) {
      lowered->program.AddFacts(member, db_->Get(member));
    }
  }
  return lowered;
}

bool Interp::TryLowerComponent(const InstanceKey& key) {
  const std::string& name = key.name;
  int comp = analysis_.ComponentOf(name);
  if (comp < 0 || lowering_failed_components_.count(comp)) return false;
  auto reject = [&](const std::string& reason) {
    lowering_failed_components_.insert(comp);
    ++lowering_stats_.components_rejected;
    lowering_stats_.rejection_notes.push_back(name + ": " + reason);
    return false;
  };
  // Splices one member's finished extent into the instance table.
  auto splice = [&](const std::string& member, Relation value) {
    Instance& inst = instances_[InstanceKey{member, key.sig, key.so_args}];
    // No member can be mid-saturation here: while the component has a
    // running unit, its instances join that unit instead of lowering.
    InternalCheck(inst.unit < 0, "lowering into an in-progress instance");
    inst.value = std::move(value);
    inst.done = true;
    lowering_stats_.lowered_tuples += inst.value.size();
    lowering_stats_.lowered_names.push_back(member);
  };

  // Cross-transaction fast path: the owner of the extent cache maintains
  // component fixpoints forward under commit deltas, so a component built
  // from shared rules may already have its extents for this exact database
  // version — splice copies and skip the evaluator entirely. Instances with
  // relation arguments are not cached: the key would have to carry them.
  const bool cacheable = options_.extent_cache != nullptr &&
                         key.so_args.empty() && SharedRulesOnly(name);
  ExtentCache::Key cache_key;
  if (cacheable) {
    cache_key = ExtentCache::KeyFor(analysis_.ComponentMembers(name));
    if (const ExtentCache::Entry* hit =
            options_.extent_cache->Lookup(cache_key, db_->version())) {
      for (const std::string& member : analysis_.ComponentMembers(name)) {
        auto it = hit->ext.extents.find(member);
        splice(member, it == hit->ext.extents.end() ? Relation() : it->second);
      }
      ++lowering_stats_.components_lowered;
      ++lowering_stats_.extent_cache_hits;
      return true;
    }
  }

  std::optional<LoweredComponent> lowered =
      BuildLoweredProgram(name, key.so_args);
  if (!lowered) return false;

  // Value-generating recursion (x = y + 1 inside the SCC) can diverge even
  // in the Datalog fragment; the interpreter's iteration cap must survive
  // the lowering (LoweredEvalOptions clamps it). A capped component rejects
  // below and re-runs (and re-caps, with the authoritative diagnostic) on
  // the tuple-at-a-time path.
  std::map<std::string, Relation> extents;
  try {
    // The program's facts become the working extents; it keeps its rules.
    extents =
        datalog::Evaluate(&lowered->program, LoweredEvalOptions(options_));
  } catch (const RelError& err) {
    // E.g. a rule that is not range-restricted under any literal order; the
    // tuple-at-a-time solver stays the authority on whether that errors.
    return reject(err.what());
  }

  for (const std::string& member : lowered->members) {
    auto it = extents.find(member);
    // Copy when the cache keeps the authoritative extents, move otherwise.
    Relation value;
    if (it != extents.end()) value = cacheable ? it->second : std::move(it->second);
    splice(member, std::move(value));
  }
  ++lowering_stats_.components_lowered;
  if (cacheable) {
    ExtentCache::Entry entry;
    entry.db_version = db_->version();
    entry.ext.extents = std::move(extents);
    FillMaintainInfo(*lowered, name, &entry.ext);
    entry.ext.program = std::move(lowered->program);
    options_.extent_cache->Store(std::move(cache_key), std::move(entry));
  }
  return true;
}

const Interp::KeyedDef& Interp::KeyedInfo(const std::string& name) {
  auto [it, inserted] = keyed_defs_.try_emplace(name);
  KeyedDef& info = it->second;
  if (!inserted) return info;
  // A base relation is finite; a recursive component has no seeded path
  // (and is not trusted as a binder: it may not converge); relation
  // parameters need an instance per argument.
  if (!HasDefs(name)) {
    info.finite = true;
    return info;
  }
  const auto& rules = DefsOf(name, 0);
  if (analysis_.IsRecursive(name) || rules.empty()) return info;
  bool finite = true;
  for (const auto& def : rules) {
    ParamSeeding seeding = solver_.AnalyzeParams(*def);
    finite &= seeding.range_restricted;
    for (SeedKind kind : seeding.kinds) {
      info.seedable |= kind != SeedKind::kNever;
    }
    info.rule_kinds.push_back(std::move(seeding.kinds));
  }
  info.finite = finite;
  return info;
}

bool Interp::FiniteStandalone(const std::string& name) {
  return KeyedInfo(name).finite;
}

bool Interp::Seedable(const std::string& name) {
  return KeyedInfo(name).seedable;
}

namespace {

/// The rows of `rel` matching `pattern`: arity equal to its length (at
/// least, when `open`) and every bound position equal (type-exact). A
/// bound position that could not seed leaves other rows in a rule's
/// output; filtering keeps the memoized slice to what the read returns.
Relation FilterSlice(const Relation& rel,
                     const std::vector<std::optional<Value>>& pattern,
                     bool open) {
  Relation out;
  rel.ForEach([&](const TupleRef& row) {
    if (row.arity() < pattern.size()) return;
    if (!open && row.arity() != pattern.size()) return;
    for (size_t i = 0; i < pattern.size(); ++i) {
      if (pattern[i] && !(row[i] == *pattern[i])) return;
    }
    out.Insert(row);
  });
  return out;
}

bool IsNumber(const Value& v) {
  return v.kind() == ValueKind::kInt || v.kind() == ValueKind::kFloat;
}

}  // namespace

const Relation& Interp::EvalSlice(
    const std::string& name,
    const std::vector<std::optional<Value>>& pattern, bool open) {
  std::vector<std::pair<size_t, Value>> bound;
  for (size_t i = 0; i < pattern.size(); ++i) {
    if (pattern[i]) bound.emplace_back(i, *pattern[i]);
  }
  if (bound.empty()) return EvalInstance(name, 0, {});
  // A memoized full extent is strictly cheaper than any slice; a member of
  // a running unit must keep its partial-value semantics (the unit's
  // recursive references drive convergence through it); and a failed one
  // must raise its cached error.
  auto inst = instances_.find(InstanceKey{name, 0, {}});
  if (inst != instances_.end() &&
      (inst->second.done || inst->second.unit >= 0 ||
       inst->second.failed_safety)) {
    return EvalInstance(name, 0, {});
  }
  int comp = analysis_.ComponentOf(name);
  if (comp < 0 || lowering_failed_components_.count(comp)) {
    return EvalInstance(name, 0, {});
  }

  SliceKey key(name + "/" + std::to_string(pattern.size()) + (open ? "+" : ""),
               std::move(bound));
  auto memo = slice_memo_.find(key);
  if (memo != slice_memo_.end()) return memo->second;

  const KeyedDef& info = KeyedInfo(name);
  const auto& rules = DefsOf(name, 0);
  std::vector<std::vector<Seed>> seeds(rules.size());
  bool seeded = false;
  for (size_t r = 0; r < rules.size(); ++r) {
    const std::vector<SeedKind>& kinds = info.rule_kinds[r];
    seeds[r].resize(std::min(pattern.size(), kinds.size()));
    for (size_t i = 0; i < seeds[r].size(); ++i) {
      if (!pattern[i] || kinds[i] == SeedKind::kNever) continue;
      if (kinds[i] == SeedKind::kNonNumeric && IsNumber(*pattern[i])) continue;
      seeds[r][i].value = pattern[i];
      seeded = true;
    }
  }
  // With nothing to seed the slice would cost the full evaluation anyway;
  // past the cutoff one full evaluation serves every later key.
  int& patterns = slice_patterns_[comp];
  if (!seeded || patterns >= kMaxSlicePatterns) {
    return EvalInstance(name, 0, {});
  }
  ++patterns;
  const uint64_t partial_before = partial_reads_;
  Relation slice;
  try {
    for (size_t r = 0; r < rules.size(); ++r) {
      slice.InsertAll(FilterSlice(solver_.EvalRule(*rules[r], {}, &seeds[r]),
                                  pattern, open));
    }
  } catch (const RelError&) {
    // The full evaluation stays the authority on errors: it raises the
    // same kind and message a full read would, or nothing if the error
    // lies outside this slice's rows.
    return EvalInstance(name, 0, {});
  }
  if (db_->Has(name)) {
    slice.InsertAll(FilterSlice(db_->Get(name), pattern, open));
  }
  ++lowering_stats_.seeded_lookups;
  lowering_stats_.seeded_tuples += slice.size();
  if (partial_reads_ == partial_before) {
    return slice_memo_[std::move(key)] = std::move(slice);
  }
  // Read an in-progress fixpoint value: valid for this lookup only.
  scratch_.push_back(std::make_unique<Relation>(std::move(slice)));
  return *scratch_.back();
}

const Relation& Interp::MaterializeSO(const SOValue& value) {
  if (value.IsMaterialized()) return *value.rel;
  if (value.IsBuiltin()) {
    throw RelError(ErrorKind::kSafety, "builtin relation '" +
                                           value.builtin->name() +
                                           "' is infinite");
  }
  InternalCheck(value.IsClosure(), "empty SOValue");
  const std::pair<const Expr*, size_t> key{value.expr.get(),
                                           value.env->Hash()};
  auto [first, last] = closure_memo_.equal_range(key);
  for (auto it = first; it != last; ++it) {
    if (it->second.env == *value.env) return it->second.result;
  }
  uint64_t before = partial_reads_;
  Relation result = EvalExprRel(value.expr, *value.env);
  if (partial_reads_ == before) {
    return closure_memo_
        .emplace(key, ClosureMemoEntry{*value.env, std::move(result)})
        ->second.result;
  }
  // The result depends on an in-progress fixpoint; do not memoize.
  scratch_.push_back(std::make_unique<Relation>(std::move(result)));
  return *scratch_.back();
}

const datalog::HashIndex& Interp::SolverIndex(
    const Relation& rel, size_t arity,
    const std::vector<size_t>& key_positions) {
  const ColumnArena* arena = rel.ArenaOfArity(arity);
  InternalCheck(arena != nullptr, "solver index over an absent arity");
  return solver_indexes_.Get(std::to_string(arena->id()), rel, arity,
                             key_positions, &solver_index_builds_);
}

Relation Interp::EvalExprRel(const ExprPtr& expr, const Env& env) {
  return solver_.EvalExpr(expr, env);
}

std::optional<Value> Interp::ApplyBinary(const SOValue& op, const Value& a,
                                         const Value& b) {
  if (op.IsBuiltin()) {
    return ApplyAsFunction(*op.builtin, {a, b});
  }
  if (op.IsMaterialized()) {
    Relation suffixes = op.rel->Suffixes(Tuple({a, b}));
    std::optional<Value> result;
    for (const Tuple& t : suffixes.SortedTuples()) {
      if (t.arity() != 1) continue;
      if (result) {
        throw RelError(ErrorKind::kType,
                       "reduce operator is not functional: multiple results "
                       "for " +
                           Tuple({a, b}).ToString());
      }
      result = t[0];
    }
    return result;
  }
  InternalCheck(op.IsClosure(), "empty reduce operator");
  auto app = MakeExpr(ExprKind::kApplication);
  app->target = op.expr;
  app->args = {Arg{MakeLiteral(a), Annotation::kNone},
               Arg{MakeLiteral(b), Annotation::kNone}};
  app->full = false;
  Relation result = EvalExprRel(app, *op.env);
  std::optional<Value> out;
  for (const Tuple& t : result.SortedTuples()) {
    if (t.arity() != 1) continue;
    if (out) {
      throw RelError(ErrorKind::kType,
                     "reduce operator is not functional: multiple results");
    }
    out = t[0];
  }
  return out;
}

}  // namespace rel
