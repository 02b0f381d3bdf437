// The interpreter: owns the rule set, evaluates relation *instances*
// (a defined relation specialized by its second-order arguments), and runs
// the fixpoint iteration that gives recursive rules their meaning
// (Section 3.3 and Addendum A).
//
// A recursive component saturates as one unit: each round runs one pass
// per member instance against the previous round's values of all members
// and publishes them together, until a round changes nothing (at most
// max_iterations rounds). Two modes:
//  - accumulate: R_{k+1} = R_k ∪ base ∪ F(R_k), the least fixpoint; used
//    when a recursive component only references itself positively
//    (classical stratified Datalog semantics);
//  - replacement: R_{k+1} = base ∪ F(R_k) from R_0 = ∅; used when a
//    component references itself under negation, aggregation or a
//    second-order argument (the paper's non-stratified programs, e.g.
//    PageRank's stop-condition recursion). This follows the
//    Statelog/Dedalus lineage the paper cites for such programs.

#ifndef REL_CORE_INTERP_H_
#define REL_CORE_INTERP_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/analysis.h"
#include "core/ast.h"
#include "core/extent_cache.h"
#include "core/lowering.h"
#include "core/solver.h"
#include "data/database.h"
#include "datalog/index.h"

namespace rel {

/// Evaluation limits; exceeded limits raise kNonConvergent.
struct InterpOptions {
  /// Cap on fixpoint iterations per relation instance.
  int max_iterations = 100000;
  /// Cap on distinct relation instances (guards against runaway
  /// specialization chains like f[(A,1)] inside f[{A}]).
  int max_instances = 1000000;
  /// Worker threads for engine-level parallel work. The solver itself is
  /// single-threaded (one Interp mirrors one Rel transaction), but the
  /// Engine checks independent integrity constraints concurrently when this
  /// is > 1, and lowered recursive components (see below) inherit it as
  /// datalog::EvalOptions::num_threads. 0 means one worker per hardware
  /// thread.
  int num_threads = 1;
  /// Evaluate qualifying monotone recursive components with the planned,
  /// indexed Datalog evaluator (src/core/lowering.h) instead of the
  /// tuple-at-a-time saturation loop. Semantics-preserving; disable to force
  /// the classic fixpoint (ablation benchmarks, differential tests).
  bool lower_recursion = true;
  /// Join-order override for lowered recursive components, forwarded to
  /// datalog::EvalOptions::plan_order_seed (0 = the production greedy
  /// order; any other value is a reproducible pseudo-random permutation
  /// per plan). Answer-invariant by contract; the equivalent-query fuzzer
  /// sweeps it to differential-test the planner through the full Rel path.
  uint64_t plan_order_seed = 0;
  /// How many leading entries of the def vector are session-shared
  /// persistent rules; everything after is transaction-local (the parsed
  /// query source). Used to decide when a lowered component may be served
  /// from or stored into `extent_cache` — a view whose transitive
  /// dependencies include a transaction-local def must not cross
  /// transactions. The default (0) treats every def as transaction-local,
  /// disabling the shared cache; the Session sets it to its snapshot's rule
  /// count.
  size_t shared_defs = 0;
  /// Cross-transaction cache of maintained views — lowered-component
  /// fixpoints (see core/extent_cache.h). Owned by the Engine's writer side
  /// or by a Session, externally synchronized, maintained under database
  /// deltas by the owner. nullptr recomputes every lowered fixpoint per
  /// transaction.
  ExtentCache* extent_cache = nullptr;
  /// Dependency/SCC analysis of the first `shared_defs` defs, owned by the
  /// Engine and published with each snapshot. When set, the Interp extends
  /// it with the transaction-local defs instead of re-analyzing the whole
  /// prelude per transaction (ProgramAnalysis falls back to a full analysis
  /// when an appended def could perturb prefix components). Must outlive
  /// the Interp; internal plumbing — callers outside Engine/Session leave
  /// it null.
  const ProgramAnalysis* shared_analysis = nullptr;
};

/// Counters for the recursion-lowering pass, exposed per Interp (and copied
/// to Engine::last_lowering_stats() after each transaction).
struct LoweringStats {
  int components_lowered = 0;   // SCCs evaluated by the Datalog engine
  int components_rejected = 0;  // monotone SCCs outside the Datalog fragment
  int extent_cache_hits = 0;    // components served from the ExtentCache
  int seeded_lookups = 0;       // keyed reads answered by a seeded slice
  int fused_readers = 0;        // readers evaluated with their producers
  uint64_t lowered_tuples = 0;  // component tuples spliced into instances
  uint64_t seeded_tuples = 0;   // tuples in seeded slices handed out
  std::vector<std::string> lowered_names;    // members, evaluation order
  std::vector<std::string> fused_names;      // fused readers, same order
  std::vector<std::string> rejection_notes;  // "name: reason" per rejection
};

/// The Datalog options every lowered evaluation runs under — the component
/// splice and the owners' incremental maintenance of cached views — so
/// recomputed and maintained extents can never diverge.
datalog::EvalOptions LoweredEvalOptions(const InterpOptions& options);

/// One evaluation context: a database plus a set of rules. Create one per
/// transaction; memoized results are valid for the lifetime of the object
/// (the database must not change underneath it).
class Interp {
 public:
  Interp(const Database* db, std::vector<std::shared_ptr<Def>> defs,
         InterpOptions options = {});

  const Database& db() const { return *db_; }
  const InterpOptions& options() const { return options_; }
  /// The full rule set this context was built from (used by the Engine to
  /// spin up sibling Interps for parallel constraint checking).
  const std::vector<std::shared_ptr<Def>>& defs() const { return all_defs_; }

  // --- definition lookup ---

  /// True if `name` has at least one rule (of any signature).
  bool HasDefs(const std::string& name) const;

  /// Rules of `name` whose leading relation-variable parameter count is
  /// `sig` (empty vector if none).
  const std::vector<std::shared_ptr<Def>>& DefsOf(const std::string& name,
                                                  size_t sig) const;

  /// Every rule but the integrity constraints, by name and signature — the
  /// index lowering translates components through.
  const DefIndex& def_index() const { return defs_; }

  /// Determines how many leading arguments of an application of `name` are
  /// second-order, using the rules' parameter signatures and the ?{}/&{}
  /// annotations of `args` (Addendum A). Throws kAmbiguous when rules
  /// disagree and the annotations do not disambiguate.
  size_t ResolveSig(const std::string& name, const std::vector<Arg>& args) const;

  /// All integrity constraints.
  const std::vector<std::shared_ptr<Def>>& ics() const { return ics_; }

  // --- evaluation ---

  /// Evaluates the instance of `name` (rules with `sig` leading relation
  /// parameters, specialized by `so_args`), running fixpoints as needed.
  /// The reference stays valid until the next call that evaluates the same
  /// instance (callers must copy out what they keep across re-entry).
  const Relation& EvalInstance(const std::string& name, size_t sig,
                               const std::vector<SOValue>& so_args);

  /// Keyed variant of EvalInstance for a Seedable first-order instance
  /// queried through an application with a binding pattern: bound
  /// positions carry the querying atom's values (constants or variables
  /// the solver has already bound); `open` means a tuple pattern followed
  /// the listed positions, so rows of any greater arity also match. The
  /// returned *seeded slice* holds exactly the tuples of the full extent
  /// that match the pattern — what the solver's enumeration would keep
  /// anyway: every rule is evaluated with its parameters seeded from the
  /// bound positions, as far as the rule's SeedKinds allow, and filtered to
  /// the pattern; matching base facts of the name are added. A RelError
  /// from the seeded evaluation falls back to the full instance, which
  /// raises its own error (or none, if the error lies outside the slice).
  /// Also falls back to EvalInstance (the full extent) whenever no position
  /// is bound or seedable, or the full instance is already done, in
  /// progress or failed. Slices are memoized per (name/arity, pattern) when
  /// they read no in-progress fixpoint value; references stay valid for the
  /// lifetime of this Interp. After kMaxSlicePatterns distinct patterns per
  /// component, one full evaluation serves every later lookup, so a join
  /// probing many distinct bindings can never run many slices where one
  /// full extent would be cheaper. Slices never enter the extent cache.
  const Relation& EvalSlice(const std::string& name,
                            const std::vector<std::optional<Value>>& pattern,
                            bool open);

  /// True iff a bound lookup of the first-order relation `name` takes
  /// EvalSlice: a non-recursive def some rule of which seeds some
  /// parameter. The solver resolves it once per compiled atom, so other
  /// atoms never build a binding pattern; a bound read of a recursive
  /// component takes its full (cached, maintained) extent.
  bool Seedable(const std::string& name);

  /// True iff the instance of `name` with no relation arguments can be
  /// evaluated standalone without a safety error, as far as a static check
  /// can tell: a base relation, or a non-recursive def every rule of which
  /// has a finite binder for every parameter (Solver::AnalyzeParams).
  /// Memoized per name.
  bool FiniteStandalone(const std::string& name);

  /// Materializes a second-order value into a finite relation. Memoized for
  /// closures. Throws kSafety for builtins and unsafe closures.
  const Relation& MaterializeSO(const SOValue& value);

  /// Evaluates an expression under an environment (used for closures,
  /// second-order arguments, and top-level query expressions).
  Relation EvalExprRel(const ExprPtr& expr, const Env& env);

  /// Applies a second-order value as a binary function (reduce operators):
  /// the unique v with (a, b, v) in the relation, if any.
  std::optional<Value> ApplyBinary(const SOValue& op, const Value& a,
                                   const Value& b);

  /// The name-level dependency analysis over this context's rule set.
  const ProgramAnalysis& analysis() const { return analysis_; }

  /// Every name transitively reachable from `name` through rule references,
  /// `name` included — the relevance set cache maintenance filters deltas
  /// and rule changes against.
  std::set<std::string> ReferencesClosure(const std::string& name) const;

  /// Fresh integer for internal variable naming (shared with the solver).
  int FreshId() { return ++fresh_counter_; }

  /// Bumped every time an in-progress (partial) instance value is read;
  /// memo tables use it to detect results that must not be cached.
  uint64_t partial_reads() const { return partial_reads_; }

  /// Passes run so far: one per non-recursive instance, one per member
  /// per round of a recursive unit.
  uint64_t instance_passes() const { return instance_passes_; }

  /// Compile cache slot used by the solver (keyed by rule identity).
  std::map<const Def*, std::shared_ptr<void>>& rule_cache() {
    return rule_cache_;
  }

  Solver& solver() { return solver_; }

  /// The hash index over `rel`'s rows of `arity` keyed on `key_positions`:
  /// the solver's access path for an atom with a bound column outside the
  /// leading bound run (see Executor::CollectMatches). `rel` must hold rows
  /// of `arity` and must not change for the rest of this Interp's life
  /// (a base relation of db(), or a finished instance). Indexes are keyed by
  /// arena id, not by name — several instances can share a name — and are
  /// built once per arena and key set, then freed with this Interp.
  const datalog::HashIndex& SolverIndex(const Relation& rel, size_t arity,
                                        const std::vector<size_t>& key_positions);
  /// Full builds SolverIndex has done so far.
  uint64_t solver_index_builds() const { return solver_index_builds_; }

  /// What the recursion-lowering pass did so far in this context.
  const LoweringStats& lowering_stats() const { return lowering_stats_; }

 private:
  struct InstanceKey {
    std::string name;
    size_t sig;
    std::vector<SOValue> so_args;

    bool operator<(const InstanceKey& other) const;
  };

  struct Instance {
    Relation value;
    bool done = false;
    bool failed_safety = false; // materialization is unsafe; cached failure
    std::string failure_message;
    int unit = -1;  // index in units_ while a member of a running unit
  };

  /// One component's instances saturating together (one pass for a
  /// non-recursive instance); `low`: outermost unit read in progress.
  struct Unit {
    int comp;
    std::vector<std::map<InstanceKey, Instance>::iterator> members;
    size_t low;
  };

  const Relation& EvalInstanceImpl(const InstanceKey& key);

  /// True iff an instance of `name` (with relation arguments or without)
  /// is of a shape the Datalog engine evaluates: a monotone or
  /// aggregation-recursive component, or a first-order non-recursive
  /// aggregate def. The analysis-level gate before any translation.
  bool Lowerable(const std::string& name, bool relation_args) const;

  /// Reader–producer fusion: evaluates the non-recursive first-order
  /// instance `key` (a query's `output`, a transaction's `insert`) and the
  /// lowerable components it reads directly in ONE Datalog program, and
  /// splices the reader and every fused member as finished instances.
  /// The reader and its first-order producers are the query's or
  /// transaction's own defs (all defs, without an extent cache); producers
  /// are the lowerable components the reader reads that are not done in
  /// this Interp and not running — query-local rules and relation-argument
  /// instances such as `TC[E2]`. At most one instance per component joins
  /// a program, and every other input (persistent or finished components,
  /// other instances, derived and base relations) is loaded as EDB.
  /// Returns false, having spliced nothing and recorded no note of its own,
  /// when the reader is persistent, reads no producer, does not lower
  /// (LowerReader), reads a defined relation a
  /// keyed read could slice, or when loading or evaluating the program
  /// raises; the caller then evaluates the reader unfused, which raises
  /// the authoritative error, if any. A producer whose translation fails is
  /// rejected exactly as TryLowerComponent rejects it.
  bool TryFuseReader(const InstanceKey& key);

  /// Records the rejection of `name`'s component (remembered as failed for
  /// this Interp).
  void RejectComponent(const std::string& name, const std::string& reason);

  /// Translates the component of `name` for instances with
  /// `relation_params` relation arguments (LowerComponent over defs_),
  /// rejecting the component when it does not qualify.
  std::optional<LoweredComponent> TranslateComponent(const std::string& name,
                                                     size_t relation_params);

  /// Stores a lowered member's extent as the finished instance `key`, and
  /// counts it in lowering_stats_.
  void SpliceLowered(const InstanceKey& key, Relation value);

  /// Attempts to evaluate the whole recursive component of `key` with the
  /// Datalog engine, splicing every member's extent — the instances with
  /// `key`'s relation arguments — into `instances_` as finished instances.
  /// Returns false when the component is outside the Datalog fragment or
  /// the evaluation cannot proceed (and remembers the component as failed),
  /// or when this instance's inputs cannot be EDB (see BuildLoweredProgram)
  /// — the caller then falls back to the tuple-at-a-time fixpoint.
  bool TryLowerComponent(const InstanceKey& key);

  /// True iff the lowered component of `name` is a pure function of the
  /// database and the session-shared rule prefix — i.e. no def reachable
  /// from `name` (itself included) is transaction-local. Only such views may
  /// live in the cross-transaction extent cache. Memoized per name.
  bool SharedRulesOnly(const std::string& name);

  /// Fills a cache entry's maintenance metadata for the component `lowered`
  /// rooted at `name`: the name closure, the database relations feeding the
  /// EDB, the members' base facts, and the maintainable verdict (false when
  /// any external has rules — its EDB snapshot is a derived value a base
  /// delta changes opaquely).
  void FillMaintainInfo(const LoweredComponent& lowered,
                        const std::string& name, MaintainableExtents* out);

  /// The front half of TryLowerComponent: translates the component of `name` for the relation arguments
  /// `so_args` and materializes its EDB (the arguments via MaterializeSO,
  /// defined externals via EvalInstance, base externals and, for a
  /// first-order component, the members' base facts straight from the
  /// database). Returns nullopt after recording the rejection when the
  /// component is outside the fragment or
  /// an external has no finite standalone extent (the component is then
  /// remembered as failed), or when an argument fails to materialize or an
  /// input read an in-progress fixpoint (only this instance falls back).
  std::optional<LoweredComponent> BuildLoweredProgram(
      const std::string& name, const std::vector<SOValue>& so_args);

  /// Per-name keyed-read facts: the SeedKinds of every rule of the name
  /// (in DefsOf order) and the FiniteStandalone verdict.
  struct KeyedDef {
    std::vector<std::vector<SeedKind>> rule_kinds;
    bool finite = false;
    bool seedable = false;  // some rule seeds some position
  };
  const KeyedDef& KeyedInfo(const std::string& name);

  const Database* db_;
  std::vector<std::shared_ptr<Def>> all_defs_;
  // name -> sig -> rules; lowering reads the rule set through it too.
  DefIndex defs_;
  std::vector<std::shared_ptr<Def>> ics_;
  ProgramAnalysis analysis_;
  InterpOptions options_;
  Solver solver_;

  std::map<InstanceKey, Instance> instances_;
  std::vector<Unit> units_;  // running units, innermost last
  LoweringStats lowering_stats_;
  std::set<int> lowering_failed_components_;
  /// Seeded slices memoized per (name/arity, bound positions and their
  /// values ascending by position); the name is qualified by the pattern
  /// arity ("+" when open) so tc(0, Y) and tc(0, Y, Z) never share an
  /// entry. Pure functions of the (fixed) database and rule set, so entries
  /// stay valid for the Interp's lifetime; map nodes keep references stable.
  using SliceKey =
      std::pair<std::string, std::vector<std::pair<size_t, Value>>>;
  std::map<SliceKey, Relation> slice_memo_;
  /// KeyedInfo per name, computed on first use.
  std::map<std::string, KeyedDef> keyed_defs_;
  /// Names defined by transaction-local defs (index >= options.shared_defs)
  /// and the per-name SharedRulesOnly verdicts.
  std::set<std::string> txn_local_names_;
  std::map<std::string, bool> shared_rules_only_;
  /// Distinct slice patterns evaluated per component, driving the
  /// kMaxSlicePatterns cutoff.
  static constexpr int kMaxSlicePatterns = 8;
  std::map<int, int> slice_patterns_;
  uint64_t partial_reads_ = 0;
  uint64_t instance_passes_ = 0;
  int fresh_counter_ = 0;

  // Closure materialization memo: (env, result) entries keyed by closure
  // expression and Env::Hash(), so a lookup compares only the envs whose
  // hash matches. Map nodes keep references to stored results stable as
  // entries are added.
  struct ClosureMemoEntry {
    Env env;
    Relation result;
  };
  std::multimap<std::pair<const Expr*, size_t>, ClosureMemoEntry>
      closure_memo_;
  // Holding area so MaterializeSO can return stable references for
  // non-memoizable (partial-dependent) results.
  std::vector<std::unique_ptr<Relation>> scratch_;

  std::map<const Def*, std::shared_ptr<void>> rule_cache_;

  datalog::IndexCache solver_indexes_;
  uint64_t solver_index_builds_ = 0;
};

}  // namespace rel

#endif  // REL_CORE_INTERP_H_
