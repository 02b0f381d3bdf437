// Bottom-up evaluation for the classical Datalog engine: stratified negation,
// naive or semi-naive iteration, planned indexed joins.
//
// Evaluation design (the fast path, Strategy::kSemiNaive):
//
//   * Planning. For every (rule, delta-occurrence) pair the evaluator builds
//     a join plan once per stratum. The forced delta atom (if any) is placed
//     first; the remaining positive literals are ordered greedily by number
//     of bound columns (descending) with estimated cardinality as the
//     tie-break — sideways information passing. Comparisons, assignments and
//     negations are hoisted to the earliest point at which their variables
//     are bound, so they prune the join as soon as possible. A range
//     generator whose output a later equality pins to one value (the
//     `s = t - 1` of a level-indexed recursion, with s already bound) tests
//     that value instead of enumerating (EvalStats::ranges_solved). Safety
//     (range restriction) is checked at plan time.
//
//   * Indexed access paths. Every positive literal with at least one bound
//     column is evaluated by probing a generalized hash index mapping
//     (predicate, arity, bound-position set) -> rows, built lazily per
//     fixpoint round by an IndexCache (src/datalog/index.h) and shared
//     across rules. Only leading all-free atoms and delta atoms are scanned.
//
//   * Worst-case optimal routing. Rules whose bodies are pure all-variable
//     conjunctions of atoms forming a *cyclic* hypergraph (triangle-style
//     self-joins; GYO reduction decides) are routed through
//     joins::LeapfrogJoin; column-permuted sorted copies are materialized
//     where an atom's column order disagrees with the global variable
//     order, so the triejoin precondition always holds. Acyclic bodies —
//     every two-atom body among them — take the hash plan, which needs no
//     sorted copies.
//
//   * Parallel evaluation. With EvalOptions::num_threads > 1 the indexed
//     strategy runs on a work-stealing ThreadPool (src/base/thread_pool.h).
//     Rules are grouped into *units* — the strongly-connected recursion
//     components of the predicate dependency graph, one fixpoint loop each —
//     and units with no dependency path between them evaluate concurrently
//     (the stratum DAG). Within a unit's round, every (rule, delta-atom)
//     plan is a task, and large driver scans split into row-range chunks.
//     Tasks emit through the span-based scratch path into per-thread
//     staging relations; at the round barrier the staging buffers are
//     deduplicated and merged into the canonical extents. Relations and
//     hash indexes therefore stay single-writer — reads during a round are
//     lock-free and the computed extents equal the sequential ones exactly
//     (every sorted view renders byte-identically; only the *unspecified*
//     insertion order seen by unsorted iteration like ForEach may vary
//     with scheduling).
//
//   * Recursive aggregation. Rules with an aggregate head (min/max/sum/
//     count over group-by columns; program.h Aggregate) run inside the same
//     fixpoint loops: each body match contributes a (witness..., value) row
//     to its group (set-deduplicated per predicate), dirty groups refold in
//     group-key order at the round barrier, and a changed (group...,
//     result) row replaces the old extent row and enters the next delta —
//     monotone aggregate *updates* instead of set union. Recursive min/max rules must be statically
//     monotone (a taint analysis over the aggregated value's dataflow);
//     recursive sum/count must be level-stratified, enforced dynamically (a
//     contribution reaching a group after the group first emitted throws
//     kType). Stratified-position aggregates are the degenerate
//     non-recursive case. Aggregate programs are refused by EvaluateDelta
//     (supported=false; callers recompute).
//
// Strategy::kNaive is the equivalent-query fuzzer's independent oracle: no
// planner, no indexes, no deltas. Every round re-derives each rule by
// nested-loop scans of the full extents, in the rule's *safety order* —
// the written order, except that a literal whose inputs are not yet bound
// waits until they are. With the planner it shares only the decision of
// when a literal is ready and whether an equality binds or filters, so it
// accepts, rejects and answers every rule exactly as the planned strategy
// does, whatever the literal order. It always runs sequentially.

#ifndef REL_DATALOG_EVAL_H_
#define REL_DATALOG_EVAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "datalog/program.h"

namespace rel {
namespace datalog {

class IndexCache;  // datalog/index.h

/// Evaluation strategy. kSemiNaive (the default) uses planned, indexed
/// joins; kNaive is the scan-based oracle described above, which
/// re-derives everything each round.
enum class Strategy { kNaive, kSemiNaive };

/// Evaluation options.
struct EvalOptions {
  Strategy strategy = Strategy::kSemiNaive;
  /// Worker threads for kSemiNaive. 1 (the default) evaluates on the
  /// calling thread with zero pool overhead; 0 means one worker per
  /// hardware thread. kNaive ignores this and always runs sequentially. The computed extents are identical for every value
  /// (unsorted iteration order, unspecified by contract, is the one thing
  /// that may differ).
  int num_threads = 1;
  /// Cap on fixpoint rounds per recursion unit; 0 means unbounded. Pure
  /// Datalog over a finite EDB always terminates, but arithmetic
  /// assignments can generate fresh values forever (n(X) :- n(Y), X = Y+1),
  /// so callers embedding this evaluator — notably the Rel engine's
  /// recursion lowering, which inherits InterpOptions::max_iterations here —
  /// need the same guard the Rel interpreter has. Exceeding the cap throws
  /// kNonConvergent naming the unit's head predicates.
  int max_iterations = 0;
  /// Deterministic join-order override for the planned strategy. 0 (the
  /// default) keeps the production order — greedy by bound-column count
  /// with estimated cardinality as tie-break. Any other value permutes the
  /// positive-atom order of every plan pseudo-randomly instead (seeded per
  /// (rule, delta occurrence) so the permutation is reproducible across
  /// runs and platforms) and bypasses the leapfrog routing, so rules that
  /// would take the worst-case-optimal path run through ordinary binary
  /// join pipelines as well. Every seed computes the identical fixpoint,
  /// the same number of rounds, and the same tuples_derived (the count of
  /// satisfying body assignments is order-independent); only the access-
  /// path counters (index_probes, driver_scans, index_builds) may differ.
  /// The equivalent-query fuzzer (src/fuzz) sweeps this knob to
  /// differential-test the planner; kNaive ignores it.
  uint64_t plan_order_seed = 0;
};

/// Evaluation statistics (exposed for benchmarks and tests). Under parallel
/// evaluation every counter is aggregated across threads at barriers — a
/// single coherent total, never a per-thread interleaving. tuples_derived,
/// index_builds, sorted_builds, index_probes and leapfrog_joins are
/// identical across num_threads values; driver_scans/delta_scans count one
/// scan per *chunk task*, so they scale with the chunking factor.
struct EvalStats {
  int strata = 0;               // numeric strata (negation depth + 1)
  int units = 0;                // recursion components scheduled on the DAG
  int threads = 1;              // workers the evaluation actually used
  int iterations = 0;           // total fixpoint iterations across units
  uint64_t tuples_derived = 0;  // insertions attempted (incl. duplicates)
  uint64_t index_builds = 0;    // hash indexes fully (re)built by the cache
  uint64_t index_repairs = 0;   // hash indexes brought up to date from the
                                // arena's erase journal instead (the
                                // incremental path; a fresh evaluation with
                                // a fresh cache never takes it)
  uint64_t sorted_builds = 0;   // column-permuted sorted copies (re)built
                                // by the cache for LeapfrogJoin
  uint64_t index_probes = 0;    // indexed lookups of bound-column literals
  uint64_t full_scans = 0;      // bound-column literals evaluated by scan
                                // (always 0 under the indexed strategy)
  uint64_t driver_scans = 0;    // unavoidable scans of all-free leading atoms
  uint64_t delta_scans = 0;     // scans of the semi-naive delta occurrence
  uint64_t leapfrog_joins = 0;  // rules routed through LeapfrogJoin
  uint64_t ranges_solved = 0;   // range steps that tested the one value
                                // their pinning equality allows instead of
                                // enumerating (kSemiNaive only)
  // Aggregation (rules with an aggregate head; 0 otherwise). Under
  // kSemiNaive both counters are deterministic across plan seeds and
  // thread counts: contributions are set-deduplicated before counting and
  // groups refold at round barriers.
  uint64_t aggregate_updates = 0;  // distinct contribution rows added to
                                   // aggregate groups across all rounds
  uint64_t groups_improved = 0;    // group result rows created or replaced
                                   // at round barriers (a group that refolds
                                   // to its previous value counts 0)
  uint64_t par_tasks = 0;       // pool tasks executed (0 when sequential)
  uint64_t par_steals = 0;      // tasks taken from another worker's queue
  uint64_t par_merges = 0;      // staging relations merged at round barriers
  // Incremental maintenance (EvaluateDelta only; all 0 under Evaluate):
  uint64_t delta_inserts = 0;   // tuples newly added to maintained extents
  uint64_t delta_deletes = 0;   // tuples removed from maintained extents
                                // (over-deleted tuples that survived
                                // re-derivation are in neither counter)
  uint64_t rederived = 0;       // over-deleted tuples restored by the DRed
                                // re-derivation phase

  /// One stable line per field, deterministic order — safe to print and
  /// diff regardless of how many threads produced the numbers.
  std::string ToString() const;
};

/// Evaluates `program` to a fixpoint and returns all predicate extents.
/// Throws kSafety if a rule is not range-restricted and kType if the
/// program cannot be stratified.
std::map<std::string, Relation> Evaluate(const Program& program,
                                         const EvalOptions& options,
                                         EvalStats* stats = nullptr);

/// The same for a caller done with `program`'s facts: they become the
/// starting extents instead of being copied, and `program` keeps its rules
/// only (its facts are gone also when this throws). The Rel lowering
/// evaluates this way, so a cached component keeps no second EDB copy.
std::map<std::string, Relation> Evaluate(Program* program,
                                         const EvalOptions& options,
                                         EvalStats* stats = nullptr);

/// Strategy-only overload. num_threads comes from the REL_EVAL_THREADS
/// environment variable when set (how CI runs the whole suite under TSan
/// with a parallel evaluator), else 1.
std::map<std::string, Relation> Evaluate(const Program& program,
                                         Strategy strategy,
                                         EvalStats* stats = nullptr);

/// A set-semantics update to the EDB, already split into effect-free parts:
/// `inserts` holds tuples absent from the pre-update EDB, `deletes` tuples
/// present in it (callers cancel insert-then-delete pairs; Engine builds
/// this from Database mutation results). Predicates not mentioned are
/// unchanged.
struct EdbDelta {
  std::map<std::string, Relation> inserts;
  std::map<std::string, Relation> deletes;
  bool empty() const;
};

/// Outcome of EvaluateDelta. When `supported` is false the extents were
/// left untouched and the caller must fall back to a full Evaluate;
/// `unsupported_reason` says why (for logs and tests).
struct DeltaResult {
  bool supported = true;
  std::string unsupported_reason;
};

/// Incrementally maintains a previously computed fixpoint under an EDB
/// delta, in place:
///
///   * `extents` holds the full fixpoint of `program` over the *pre-update*
///     EDB (exactly what Evaluate returned, including the EDB predicates'
///     own extents). On success it is mutated to the fixpoint over the
///     post-update EDB — byte-identical (per SortedTuples) to re-running
///     Evaluate from scratch under any strategy and thread count.
///   * `program.facts()` is ignored; `base_facts` must instead hold the
///     post-update EDB extents of every predicate that is BOTH a rule head
///     and an EDB fact carrier (their base tuples are not derivable and the
///     delete path needs to know they survive). Pure-EDB predicates need
///     no entry — their extents are maintained directly from the delta.
///
/// Inserts resume semi-naive evaluation with the inserted tuples as the
/// delta against the cached fixpoint, reusing the planned, indexed,
/// parallel machinery (options.num_threads honored). Deletes run DRed:
/// over-delete everything derivable from a deleted tuple, then re-derive
/// what has an alternative proof (point probes with pre-bound head
/// variables); the delete phases run sequentially — deletions shrink cones,
/// they are never the bulk cost. Unsupported shapes — a negative literal
/// on a predicate transitively affected by the delta, or an aggregate rule
/// — return supported=false without touching anything.
/// options.strategy is ignored (the planned engine is the only maintained
/// path). Pass a persistent `cache` keyed to these extents to amortize
/// index builds across updates (indexes repair themselves from the extents'
/// erase journals, inserts and deletes alike; see index_repairs).
DeltaResult EvaluateDelta(const Program& program,
                          const std::map<std::string, Relation>& base_facts,
                          const EdbDelta& delta,
                          std::map<std::string, Relation>* extents,
                          const EvalOptions& options = {},
                          EvalStats* stats = nullptr,
                          IndexCache* cache = nullptr);

/// Convenience: evaluates and returns one predicate's extent.
Relation EvaluatePredicate(const Program& program, const std::string& pred,
                           const EvalOptions& options, EvalStats* stats = nullptr);
Relation EvaluatePredicate(const Program& program, const std::string& pred,
                           Strategy strategy = Strategy::kSemiNaive,
                           EvalStats* stats = nullptr);

}  // namespace datalog
}  // namespace rel

#endif  // REL_DATALOG_EVAL_H_
