#include "datalog/eval.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "base/error.h"
#include "base/hash.h"
#include "base/rng.h"
#include "base/thread_pool.h"
#include "datalog/index.h"
#include "joins/leapfrog.h"

namespace rel {
namespace datalog {

namespace {

// --- stratification ----------------------------------------------------------

/// Assigns each predicate a stratum such that positive dependencies stay
/// within or below, and negative dependencies come from strictly below.
/// Classic iterate-to-fixpoint algorithm; throws kType on negative cycles.
std::map<std::string, int> Stratify(const Program& program) {
  std::map<std::string, int> stratum;
  for (const std::string& pred : program.Predicates()) stratum[pred] = 0;
  size_t n = stratum.size();
  bool changed = true;
  size_t rounds = 0;
  while (changed) {
    changed = false;
    if (++rounds > n + 1) {
      throw RelError(ErrorKind::kType,
                     "datalog program is not stratifiable (negation in a "
                     "recursive cycle)");
    }
    for (const Rule& rule : program.rules()) {
      int& head = stratum[rule.head.pred];
      for (const Literal& lit : rule.body) {
        if (lit.kind == Literal::Kind::kPositive) {
          if (stratum[lit.atom.pred] > head) {
            head = stratum[lit.atom.pred];
            changed = true;
          }
        } else if (lit.kind == Literal::Kind::kNegative) {
          if (stratum[lit.atom.pred] + 1 > head) {
            head = stratum[lit.atom.pred] + 1;
            changed = true;
          }
        }
      }
    }
  }
  return stratum;
}

// --- scalar evaluation -------------------------------------------------------

/// Signed-overflow guard for the int lanes of +, -, * (and the sum/count
/// aggregate fold): i64 wraparound is UB, and the Rel interpreter's checked
/// kernels (core/builtins.cc) raise kType for the same inputs — both engines
/// must agree on the error, not on two different wrapped values.
int64_t CheckedI64(ArithOp op, int64_t a, int64_t b) {
  int64_t r = 0;
  bool overflow = false;
  switch (op) {
    case ArithOp::kAdd: overflow = __builtin_add_overflow(a, b, &r); break;
    case ArithOp::kSub: overflow = __builtin_sub_overflow(a, b, &r); break;
    case ArithOp::kMul: overflow = __builtin_mul_overflow(a, b, &r); break;
    default: InternalCheck(false, "CheckedI64 on a non-overflowing op");
  }
  if (overflow) {
    throw RelError(ErrorKind::kType,
                   "integer overflow: " + std::to_string(a) +
                       (op == ArithOp::kAdd ? " + "
                        : op == ArithOp::kSub ? " - "
                                              : " * ") +
                       std::to_string(b) + " exceeds the int64 range");
  }
  return r;
}

std::optional<Value> EvalArith(ArithOp op, const Value& a, const Value& b) {
  auto both_int = a.is_int() && b.is_int();
  if (!a.is_number() || !b.is_number()) return std::nullopt;
  switch (op) {
    case ArithOp::kAdd:
      return both_int ? Value::Int(CheckedI64(op, a.AsInt(), b.AsInt()))
                      : Value::FloatResult(a.AsDouble() + b.AsDouble());
    case ArithOp::kSub:
      return both_int ? Value::Int(CheckedI64(op, a.AsInt(), b.AsInt()))
                      : Value::FloatResult(a.AsDouble() - b.AsDouble());
    case ArithOp::kMul:
      return both_int ? Value::Int(CheckedI64(op, a.AsInt(), b.AsInt()))
                      : Value::FloatResult(a.AsDouble() * b.AsDouble());
    case ArithOp::kDiv: {
      if (b.AsDouble() == 0) return std::nullopt;
      if (both_int) {
        int64_t x = a.AsInt();
        int64_t y = b.AsInt();
        if (y == -1) {
          // INT64_MIN / -1 overflows (UB); promote that one case to float.
          if (x == INT64_MIN) return Value::Float(-static_cast<double>(x));
          return Value::Int(-x);
        }
        if (x % y == 0) return Value::Int(x / y);
      }
      return Value::FloatResult(a.AsDouble() / b.AsDouble());
    }
    case ArithOp::kMod: {
      if (!both_int || b.AsInt() == 0) return std::nullopt;
      // x % -1 is 0 for all x, but the instruction traps on INT64_MIN (UB).
      if (b.AsInt() == -1) return Value::Int(0);
      return Value::Int(a.AsInt() % b.AsInt());
    }
    case ArithOp::kMin:
      return a.NumericCompare(b) == Value::Ordering::kGreater ? b : a;
    case ArithOp::kMax:
      return a.NumericCompare(b) == Value::Ordering::kLess ? b : a;
  }
  return std::nullopt;
}

bool EvalCompare(CmpOp op, const Value& a, const Value& b) {
  Value::Ordering o = a.NumericCompare(b);
  switch (op) {
    case CmpOp::kEq: return o == Value::Ordering::kEqual;
    case CmpOp::kNeq: return o != Value::Ordering::kEqual &&
                             o != Value::Ordering::kUnordered;
    case CmpOp::kLt: return o == Value::Ordering::kLess;
    case CmpOp::kLe: return o == Value::Ordering::kLess ||
                            o == Value::Ordering::kEqual;
    case CmpOp::kGt: return o == Value::Ordering::kGreater;
    case CmpOp::kGe: return o == Value::Ordering::kGreater ||
                            o == Value::Ordering::kEqual;
  }
  return false;
}

/// A kCompare literal's outcome: the comparison, complemented when the
/// literal is negated. The complement is over the whole outcome, so
/// kUnordered operands (where every plain comparison is false) satisfy
/// every negated comparison — the faithful `not (a < b)` semantics.
bool EvalCompareLit(const Literal& lit, const Value& a, const Value& b) {
  return EvalCompare(lit.cmp_op, a, b) != lit.negated;
}

// --- aggregate folds ---------------------------------------------------------
//
// These mirror the Rel interpreter's reduce kernels (core/builtins.cc
// rel_primitive_add / minimum / maximum) exactly — NOT EvalArith, whose
// kMin/kMax keep the first operand on an unordered comparison where the Rel
// kernels produce no value at all. Byte-identity of lowered aggregate
// extents with the interpreter rests on that distinction (NaN payloads, and
// kEqual ties keeping the first sorted operand's representation).

const char* AggOpName(AggOp op) {
  switch (op) {
    case AggOp::kMin: return "min";
    case AggOp::kMax: return "max";
    case AggOp::kSum: return "sum";
    case AggOp::kCount: return "count";
  }
  return "?";
}

std::optional<Value> FoldStep(AggOp op, const Value& acc, const Value& v) {
  switch (op) {
    case AggOp::kSum:
    case AggOp::kCount: {
      if (acc.is_int() && v.is_int()) {
        return Value::Int(CheckedI64(ArithOp::kAdd, acc.AsInt(), v.AsInt()));
      }
      if (!acc.is_number() || !v.is_number()) return std::nullopt;
      return Value::FloatResult(acc.AsDouble() + v.AsDouble());
    }
    case AggOp::kMin: {
      Value::Ordering c = acc.NumericCompare(v);
      if (c == Value::Ordering::kUnordered) return std::nullopt;
      return c == Value::Ordering::kGreater ? v : acc;
    }
    case AggOp::kMax: {
      Value::Ordering c = acc.NumericCompare(v);
      if (c == Value::Ordering::kUnordered) return std::nullopt;
      return c == Value::Ordering::kLess ? v : acc;
    }
  }
  return std::nullopt;
}

/// One contribution row of an aggregate predicate: row `row` of one of its
/// `seen` relation's arenas (one arena per witness arity). `seen` is the
/// only copy of a contribution; groups hold these references into it.
struct SeenRow {
  const ColumnArena* arena;
  uint32_t row;

  const Value& At(size_t col) const { return arena->At(row, col); }
  size_t arity() const { return arena->arity(); }
};

/// The order a group folds its contributions in: the order the Rel
/// interpreter's `reduce` consumes a materialized abstraction, i.e.
/// Relation::SortedTuples of the (witness..., value) payloads — arity first
/// (witness arities may differ between a predicate's rules), then
/// lexicographic. A group's rows share their first `group_arity` columns,
/// so the comparison starts after them.
bool FoldOrderLess(const SeenRow& a, const SeenRow& b, size_t group_arity) {
  if (a.arity() != b.arity()) return a.arity() < b.arity();
  for (size_t c = group_arity; c < a.arity(); ++c) {
    int cmp = a.At(c).Compare(b.At(c));
    if (cmp != 0) return cmp < 0;
  }
  return false;
}

/// Folds one group's contributions, already in fold order: the accumulator
/// starts from the first row's value (its last column) and steps through
/// the rest. A step with no result (mixed non-numeric payloads, NaN under
/// min/max) makes the whole group's result absent — an empty or undefined
/// group emits NO row, never a default.
std::optional<Value> FoldPayloads(AggOp op,
                                  const std::vector<SeenRow>& payloads) {
  std::optional<Value> acc;
  for (const SeenRow& p : payloads) {
    const Value& v = p.At(p.arity() - 1);
    if (!acc) {
      acc = v;
      continue;
    }
    acc = FoldStep(op, *acc, v);
    if (!acc) return std::nullopt;
  }
  return acc;
}

/// Mirrors the Rel `range` builtin (core/builtins.cc RangeBuiltin): yields
/// x = lo, lo+step, ..., <= hi for bound integer bounds with step > 0; a
/// present `x` is a membership test (one yield or none). Non-integer bounds
/// or step <= 0 yield nothing — same as the builtin, never an error. The
/// membership modulus runs in uint64 so an astronomically wide range stays
/// defined; the enumeration stops before a signed increment could wrap.
template <typename Fn>
void EvalRange(const Value& lo_v, const Value& hi_v, const Value& step_v,
               const std::optional<Value>& x, Fn&& yield) {
  if (!lo_v.is_int() || !hi_v.is_int() || !step_v.is_int()) return;
  int64_t lo = lo_v.AsInt();
  int64_t hi = hi_v.AsInt();
  int64_t step = step_v.AsInt();
  if (step <= 0) return;
  if (x) {
    if (!x->is_int()) return;
    int64_t v = x->AsInt();
    if (v >= lo && v <= hi &&
        (static_cast<uint64_t>(v) - static_cast<uint64_t>(lo)) %
                static_cast<uint64_t>(step) ==
            0) {
      yield(*x);
    }
    return;
  }
  for (int64_t v = lo; v <= hi;) {
    yield(Value::Int(v));
    if (__builtin_add_overflow(v, step, &v)) break;
  }
}

/// How an equality pins a kRange step's output x to one value, so the step
/// can test one candidate instead of enumerating (SolvePinnedRange). The
/// pin is z = x + c (`add`) or z = x - c, with z bound when the range runs
/// and c an Int constant, in one of two written forms:
///   1. `t := x ± c` then `t = z` — the assignment reads x (`reads_x`);
///   2. `y := z ± c` then `x = y` — the assignment reads z.
struct RangePin {
  Term z;
  bool add = false;
  int64_t c = 0;
  bool reads_x = false;
};

/// Solves a range step whose output x is pinned by `pin`, z = x + c or
/// z = x - c: the one candidate is x = z - c or x = z + c. Returns false
/// when the step must enumerate as written instead — z, lo, hi or step is
/// not an Int, or lo ± c or hi ± c overflows (the enumeration's own x ± c
/// assignment would throw). Otherwise returns true, with `*x` empty when the
/// candidate overflows: then no Int x satisfies the pin, unless the
/// assignment computes the candidate itself (z ± c), whose overflow the
/// enumeration must raise — that case enumerates too.
bool SolvePinnedRange(const RangePin& pin, const Value& lo, const Value& hi,
                      const Value& step, const Value& z,
                      std::optional<int64_t>* x) {
  if (!z.is_int() || !lo.is_int() || !hi.is_int() || !step.is_int()) {
    return false;
  }
  auto shift = [&pin](bool plus, int64_t v, int64_t* out) {
    return plus ? __builtin_add_overflow(v, pin.c, out)
                : __builtin_sub_overflow(v, pin.c, out);
  };
  int64_t unused;
  if (shift(pin.add, lo.AsInt(), &unused) ||
      shift(pin.add, hi.AsInt(), &unused)) {
    return false;
  }
  int64_t candidate;
  if (shift(!pin.add, z.AsInt(), &candidate)) {
    x->reset();
    return pin.reads_x;
  }
  *x = candidate;
  return true;
}

/// Mutable per-rule binding vector (variables are dense ids).
using Bindings = std::vector<std::optional<Value>>;

int MaxVar(const Rule& rule) {
  int max_var = -1;
  auto scan_atom = [&max_var](const Atom& atom) {
    for (const Term& t : atom.terms) {
      if (t.is_var()) max_var = std::max(max_var, t.var);
    }
  };
  scan_atom(rule.head);
  for (const Literal& lit : rule.body) {
    scan_atom(lit.atom);
    if (lit.lhs.is_var()) max_var = std::max(max_var, lit.lhs.var);
    if (lit.rhs.is_var()) max_var = std::max(max_var, lit.rhs.var);
    max_var = std::max(max_var, lit.target);
  }
  return max_var;
}

/// The canonical predicate extents. In parallel evaluation the map
/// structure is frozen before any task runs (every head predicate gets its
/// entry up front), so concurrent units may read foreign extents and write
/// their own without synchronization — relation entries never move and each
/// is written by exactly one unit, only at its round barriers.
struct State {
  /// Not owned. Evaluate points this at a local map; EvaluateDelta points it
  /// at the caller's cached extents so maintenance mutates them in place.
  std::map<std::string, Relation>* full = nullptr;

  const Relation& Full(const std::string& pred) const {
    static const Relation* empty = new Relation();
    auto it = full->find(pred);
    return it == full->end() ? *empty : it->second;
  }
};

/// Per-unit delta extents for one semi-naive round. Unit-local: concurrent
/// units never share a DeltaMap.
using DeltaMap = std::map<std::string, Relation>;

const Relation* FindDelta(const DeltaMap& delta, const std::string& pred) {
  auto it = delta.find(pred);
  return it == delta.end() ? nullptr : &it->second;
}

// --- literal placement (the planner and kNaive) ------------------------------

/// One step of a compiled rule plan.
struct PlanStep {
  enum class Kind {
    kScanDelta,  // scan the semi-naive delta occurrence (always first)
    kScanFull,   // scan an all-free leading atom
    kProbe,      // probe the (pred, arity, key_positions) hash index
    kNegation,   // all-bound negated atom: Contains check
    kFilter,     // all-bound comparison
    kBind,       // equality with one unbound variable side: binds it
    kAssign,     // arithmetic assignment; operands bound
    kRange,      // range generator; lo/hi/step bound, enumerates or tests x
  };
  Kind kind;
  size_t lit_index = 0;
  std::vector<size_t> key_positions;  // kProbe: columns bound at entry
  bool bind_lhs = false;              // kBind: the lhs is the unbound side
  std::optional<RangePin> pin;        // kRange: solvable from this pin
};

/// Decides whether body literal `i` of `rule`, other than a positive atom,
/// can run once the variables in `*bound` are bound. If it can, marks what
/// it binds and returns the step it runs as; otherwise returns nullopt.
/// The planner and kNaive's SafetyOrder both place literals with this, so
/// they accept and reject the same rules. An equality with exactly one side
/// known binds that side only when no atom, assignment or range in the body
/// produces the variable: an equality on a produced variable waits and runs
/// as a filter after its producer (EvalCompare equates Int 1 with Float
/// 1.0), never as a binding checked type-exactly against the producer.
std::optional<PlanStep> ReadyStep(const Rule& rule, size_t i,
                                  std::vector<bool>* bound) {
  const Literal& lit = rule.body[i];
  auto known = [&](const Term& t) { return !t.is_var() || (*bound)[t.var]; };
  auto produced_elsewhere = [&](int var) {
    for (const Literal& other : rule.body) {
      if (other.kind == Literal::Kind::kAssign && other.target == var) {
        return true;
      }
      if (other.kind == Literal::Kind::kRange) {
        const Term& x = other.atom.terms[3];
        if (x.is_var() && x.var == var) return true;
        continue;
      }
      if (other.kind != Literal::Kind::kPositive) continue;
      for (const Term& t : other.atom.terms) {
        if (t.is_var() && t.var == var) return true;
      }
    }
    return false;
  };
  switch (lit.kind) {
    case Literal::Kind::kPositive:
      break;
    case Literal::Kind::kNegative:
      for (const Term& t : lit.atom.terms) {
        if (!known(t)) return std::nullopt;
      }
      return PlanStep{PlanStep::Kind::kNegation, i, {}, false, {}};
    case Literal::Kind::kCompare: {
      const bool lk = known(lit.lhs);
      const bool rk = known(lit.rhs);
      if (lk && rk) return PlanStep{PlanStep::Kind::kFilter, i, {}, false, {}};
      if (lit.cmp_op != CmpOp::kEq || lit.negated || lk == rk) break;
      const int var = (lk ? lit.rhs : lit.lhs).var;
      if (produced_elsewhere(var)) break;
      (*bound)[var] = true;
      return PlanStep{PlanStep::Kind::kBind, i, {}, !lk, {}};
    }
    case Literal::Kind::kAssign:
      if (!known(lit.lhs) || !known(lit.rhs)) break;
      (*bound)[lit.target] = true;
      return PlanStep{PlanStep::Kind::kAssign, i, {}, false, {}};
    case Literal::Kind::kRange: {
      for (size_t p = 0; p < 3; ++p) {
        if (!known(lit.atom.terms[p])) return std::nullopt;
      }
      const Term& x = lit.atom.terms[3];
      if (x.is_var()) (*bound)[x.var] = true;
      return PlanStep{PlanStep::Kind::kRange, i, {}, false, {}};
    }
  }
  return std::nullopt;
}

/// Throws kSafety unless every body literal was placed (`done`) and every
/// head variable ended up `bound`: the rule is not range-restricted under
/// any literal order.
void RequireRangeRestricted(const Rule& rule, const std::vector<bool>& done,
                            const std::vector<bool>& bound) {
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (done[i]) continue;
    const Literal::Kind kind = rule.body[i].kind;
    const char* what =
        kind == Literal::Kind::kNegative
            ? "variable in negated atom of rule for '"
            : kind == Literal::Kind::kCompare
                  ? "comparison over unbound variables in rule for '"
                  : kind == Literal::Kind::kRange
                        ? "range bounds unbound in rule for '"
                        : "assignment over unbound variables in rule for '";
    throw RelError(ErrorKind::kSafety, what + rule.head.pred + "'");
  }
  for (const Term& t : rule.head.terms) {
    if (t.is_var() && !bound[t.var]) {
      throw RelError(ErrorKind::kSafety,
                     "head variable unbound in rule for '" + rule.head.pred +
                         "'");
    }
  }
}

/// Inserts one gathered head row into `out` unless `dedup_against` (when
/// non-null) already holds it — the fixpoint diff happens here, with no
/// intermediate relation and no copy-and-sort. The row is hashed once, for
/// both the probe and the insert.
void EmitRow(const std::vector<Value>& row, Relation* out,
             const Relation* dedup_against) {
  const size_t h = HashRow(row.data(), row.size());
  if (dedup_against &&
      dedup_against->ContainsHashed(row.data(), row.size(), h)) {
    return;
  }
  out->InsertHashed(row.data(), row.size(), h);
}

/// Emits one derivation: gathers the head values into the caller's reusable
/// scratch buffer and inserts the span straight into `out`'s column arena —
/// no per-candidate Tuple allocation — through EmitRow.
void EmitHeadColumnar(const Rule& rule, const Bindings& bindings,
                      std::vector<Value>& scratch, Relation* out,
                      EvalStats* stats, const Relation* dedup_against) {
  scratch.clear();
  for (const Term& t : rule.head.terms) {
    if (t.is_var()) {
      if (!bindings[t.var]) {
        throw RelError(ErrorKind::kSafety,
                       "head variable unbound in rule for '" + rule.head.pred +
                           "'");
      }
      scratch.push_back(*bindings[t.var]);
    } else {
      scratch.push_back(t.constant);
    }
  }
  if (stats) ++stats->tuples_derived;
  EmitRow(scratch, out, dedup_against);
}

// --- naive evaluation (kNaive, the fuzzer's oracle) --------------------------

/// The order in which kNaive evaluates `rule`'s body: the written order,
/// except that a literal whose inputs are not yet bound is deferred to the
/// first point where they are (ReadyStep decides; a positive atom is always
/// ready). Computed once per rule. Throws kSafety when no order binds
/// everything — exactly the rules the planner rejects, since both place
/// literals with ReadyStep and so reach the same closure of bound
/// variables.
std::vector<size_t> SafetyOrder(const Rule& rule) {
  const size_t n = rule.body.size();
  std::vector<bool> bound(static_cast<size_t>(MaxVar(rule) + 1), false);
  std::vector<bool> done(n, false);
  // Places literal i if its inputs are bound, marking what it binds.
  auto place = [&](size_t i) {
    const Literal& lit = rule.body[i];
    if (lit.kind == Literal::Kind::kPositive) {
      for (const Term& t : lit.atom.terms) {
        if (t.is_var()) bound[t.var] = true;
      }
    } else if (!ReadyStep(rule, i, &bound)) {
      return false;
    }
    done[i] = true;
    return true;
  };
  std::vector<size_t> order;
  std::vector<size_t> waiting;  // written order, not yet placeable
  for (size_t i = 0; i < n; ++i) {
    waiting.push_back(i);
    // Placing `i` may release earlier waiting literals, which may release
    // more; retry in written order until nothing moves.
    for (bool progress = true; progress;) {
      progress = false;
      for (auto it = waiting.begin(); it != waiting.end();) {
        if (place(*it)) {
          order.push_back(*it);
          it = waiting.erase(it);
          progress = true;
        } else {
          ++it;
        }
      }
    }
  }
  RequireRangeRestricted(rule, done, bound);
  return order;
}

/// Evaluates one rule by nested-loop scans of the full extents, in the
/// rule's safety `order`, emitting tuples not already in `dedup_against`.
void EvalRuleNaive(const Rule& rule, const std::vector<size_t>& order,
                   const State& state, Relation* out, EvalStats* stats,
                   const Relation* dedup_against) {
  Bindings bindings(static_cast<size_t>(MaxVar(rule) + 1));
  std::vector<Value> head_buf;
  // The safety order guarantees every input term is known when read.
  auto value_of = [&](const Term& t) -> const Value& {
    return t.is_var() ? *bindings[t.var] : t.constant;
  };
  auto unbound = [&](const Term& t) { return t.is_var() && !bindings[t.var]; };

  std::function<void(size_t)> step = [&](size_t k) {
    if (k == order.size()) {
      EmitHeadColumnar(rule, bindings, head_buf, out, stats, dedup_against);
      return;
    }
    const Literal& lit = rule.body[order[k]];
    switch (lit.kind) {
      case Literal::Kind::kPositive: {
        const size_t arity = lit.atom.terms.size();
        if (stats) {
          bool any_bound = false;
          for (const Term& t : lit.atom.terms) any_bound |= !unbound(t);
          ++(any_bound ? stats->full_scans : stats->driver_scans);
        }
        auto match_row = [&](const TupleRef& row) {
          bool ok = true;
          std::vector<int> newly_bound;
          for (size_t i = 0; i < arity && ok; ++i) {
            const Term& t = lit.atom.terms[i];
            if (!unbound(t)) {
              ok = row[i] == value_of(t);
            } else {
              bindings[t.var] = row[i];
              newly_bound.push_back(t.var);
            }
          }
          if (ok) step(k + 1);
          for (int v : newly_bound) bindings[v].reset();
        };
        state.Full(lit.atom.pred).ForEachOfArity(arity, match_row);
        return;
      }
      case Literal::Kind::kNegative: {
        std::vector<Value> probe;
        for (const Term& t : lit.atom.terms) probe.push_back(value_of(t));
        if (!state.Full(lit.atom.pred).Contains(probe.data(), probe.size())) {
          step(k + 1);
        }
        return;
      }
      case Literal::Kind::kCompare: {
        if (unbound(lit.lhs) || unbound(lit.rhs)) {
          // The safety order placed this equality as a binding.
          const Term& target = unbound(lit.lhs) ? lit.lhs : lit.rhs;
          const Term& source = unbound(lit.lhs) ? lit.rhs : lit.lhs;
          bindings[target.var] = value_of(source);
          step(k + 1);
          bindings[target.var].reset();
          return;
        }
        if (EvalCompareLit(lit, value_of(lit.lhs), value_of(lit.rhs))) {
          step(k + 1);
        }
        return;
      }
      case Literal::Kind::kAssign: {
        std::optional<Value> r =
            EvalArith(lit.arith_op, value_of(lit.lhs), value_of(lit.rhs));
        if (!r) return;
        if (bindings[lit.target]) {
          if (*bindings[lit.target] == *r) step(k + 1);
          return;
        }
        bindings[lit.target] = *r;
        step(k + 1);
        bindings[lit.target].reset();
        return;
      }
      case Literal::Kind::kRange: {
        const Value& lo = value_of(lit.atom.terms[0]);
        const Value& hi = value_of(lit.atom.terms[1]);
        const Value& st = value_of(lit.atom.terms[2]);
        const Term& xt = lit.atom.terms[3];
        if (unbound(xt)) {
          EvalRange(lo, hi, st, std::nullopt, [&](const Value& v) {
            bindings[xt.var] = v;
            step(k + 1);
            bindings[xt.var].reset();
          });
        } else {
          EvalRange(lo, hi, st, value_of(xt),
                    [&](const Value&) { step(k + 1); });
        }
        return;
      }
    }
  };
  step(0);
}

// --- join planning (kSemiNaive) ----------------------------------------------

/// A compiled per-(rule, delta-occurrence) evaluation plan.
struct RulePlan {
  std::vector<PlanStep> steps;
  int num_vars = 0;
  bool leapfrog = false;  // route the whole body through LeapfrogJoin
};

/// True if the atoms' variable sets form a cyclic hypergraph: GYO reduction
/// — repeatedly drop variables that occur in one atom only, and atoms whose
/// variables another atom covers — leaves more than one atom standing.
bool CyclicBody(const std::vector<Literal>& body, int num_vars) {
  std::vector<std::vector<int>> atoms;
  for (const Literal& lit : body) {
    std::vector<int> vars;
    for (const Term& t : lit.atom.terms) vars.push_back(t.var);
    std::sort(vars.begin(), vars.end());
    atoms.push_back(std::move(vars));
  }
  for (bool changed = true; changed && atoms.size() > 1;) {
    changed = false;
    std::vector<int> count(num_vars, 0);
    for (const auto& vars : atoms) {
      for (int v : vars) ++count[v];
    }
    for (auto& vars : atoms) {
      auto lone = std::remove_if(vars.begin(), vars.end(),
                                 [&](int v) { return count[v] == 1; });
      changed |= lone != vars.end();
      vars.erase(lone, vars.end());
    }
    for (size_t i = 0; i < atoms.size() && !changed; ++i) {
      for (size_t j = 0; j < atoms.size(); ++j) {
        if (i != j && std::includes(atoms[j].begin(), atoms[j].end(),
                                    atoms[i].begin(), atoms[i].end())) {
          atoms.erase(atoms.begin() + static_cast<ptrdiff_t>(i));
          changed = true;
          break;
        }
      }
    }
  }
  return atoms.size() > 1;
}

/// True if the rule body is a pure conjunction of >= 2 all-variable positive
/// atoms with no repeated variables inside an atom, every rule variable
/// covered, and a cyclic join hypergraph — the shape LeapfrogJoin handles
/// once columns are permuted into the global variable order, and the only
/// one where it beats the hash plan. An acyclic body (every two-atom body
/// among them) is joined by probes, with no sorted column copies to build.
bool LeapfrogEligible(const Rule& rule, int num_vars) {
  if (rule.body.size() < 2 || num_vars == 0) return false;
  std::vector<bool> covered(num_vars, false);
  for (const Literal& lit : rule.body) {
    if (lit.kind != Literal::Kind::kPositive) return false;
    if (lit.atom.terms.empty()) return false;
    std::vector<bool> in_atom(num_vars, false);
    for (const Term& t : lit.atom.terms) {
      if (!t.is_var()) return false;
      if (in_atom[t.var]) return false;
      in_atom[t.var] = true;
      covered[t.var] = true;
    }
  }
  for (int v = 0; v < num_vars; ++v) {
    if (!covered[v]) return false;
  }
  for (const Term& t : rule.head.terms) {
    if (t.is_var() && !covered[t.var]) return false;
  }
  return CyclicBody(rule.body, num_vars);
}

/// The equality, if any, that pins the output x of range step `s` to one
/// value (RangePin); `bound` holds the variables bound when the step runs.
/// From the range to its equality the steps run unchanged on the solved
/// candidate alone, so none of them may throw on a value the enumeration
/// would have discarded: an assignment between them other than the pinning
/// one leaves the range enumerating.
std::optional<RangePin> FindRangePin(const Rule& rule,
                                     const std::vector<PlanStep>& steps,
                                     size_t s, const std::vector<bool>& bound) {
  const Term& x = rule.body[steps[s].lit_index].atom.terms[3];
  if (!x.is_var() || bound[x.var]) return std::nullopt;
  auto known = [&](const Term& t) { return !t.is_var() || bound[t.var]; };
  auto is_x = [&](const Term& t) { return t.is_var() && t.var == x.var; };
  auto int_const = [](const Term& t) {
    return !t.is_var() && t.constant.is_int();
  };
  std::optional<size_t> between;  // the assignment step seen since s
  for (size_t e = s + 1; e < steps.size(); ++e) {
    const PlanStep& ps = steps[e];
    const Literal& eq = rule.body[ps.lit_index];
    switch (ps.kind) {
      case PlanStep::Kind::kScanDelta:
      case PlanStep::Kind::kScanFull:
      case PlanStep::Kind::kProbe:
        return std::nullopt;
      case PlanStep::Kind::kAssign:
        if (between) return std::nullopt;  // one of the two is not the pin
        between = e;
        continue;
      case PlanStep::Kind::kFilter:
        break;
      case PlanStep::Kind::kNegation:
      case PlanStep::Kind::kBind:
      case PlanStep::Kind::kRange:
        continue;
    }
    if (eq.cmp_op != CmpOp::kEq || eq.negated) continue;
    for (int side = 0; side < 2; ++side) {
      const Term& a = side == 0 ? eq.lhs : eq.rhs;
      const Term& b = side == 0 ? eq.rhs : eq.lhs;
      if (!a.is_var()) continue;
      // `a` must be the target of an assignment `v + c`, `c + v` or
      // `v - c` with c an Int constant, placed before the equality.
      size_t p = 0;
      while (p < e && (steps[p].kind != PlanStep::Kind::kAssign ||
                       rule.body[steps[p].lit_index].target != a.var)) {
        ++p;
      }
      if (p == e || (between && *between != p)) continue;
      const Literal& assign = rule.body[steps[p].lit_index];
      const bool add = assign.arith_op == ArithOp::kAdd;
      if (!add && assign.arith_op != ArithOp::kSub) continue;
      const bool c_left = add && int_const(assign.lhs);
      if (!c_left && !int_const(assign.rhs)) continue;
      const Term& v = c_left ? assign.rhs : assign.lhs;
      const int64_t c = (c_left ? assign.lhs : assign.rhs).constant.AsInt();
      if (p > s && is_x(v) && known(b)) {
        return RangePin{b, add, c, true};  // a := x ± c, a = z
      }
      if (is_x(b) && known(v)) {
        return RangePin{v, !add, c, false};  // a := z ± c, x = a
      }
    }
  }
  return std::nullopt;
}

/// Records on each kRange step of `plan` its pin, if any (FindRangePin).
/// `bound` holds the variables bound before the first step. kNaive never
/// reads the pin.
void PinRanges(const Rule& rule, std::vector<bool> bound, RulePlan* plan) {
  std::vector<PlanStep>& steps = plan->steps;
  auto mark = [&bound](const Term& t) {
    if (t.is_var()) bound[t.var] = true;
  };
  for (size_t s = 0; s < steps.size(); ++s) {
    const Literal& lit = rule.body[steps[s].lit_index];
    switch (steps[s].kind) {
      case PlanStep::Kind::kScanDelta:
      case PlanStep::Kind::kScanFull:
      case PlanStep::Kind::kProbe:
        for (const Term& t : lit.atom.terms) mark(t);
        break;
      case PlanStep::Kind::kBind:
        mark(steps[s].bind_lhs ? lit.lhs : lit.rhs);
        break;
      case PlanStep::Kind::kAssign: bound[lit.target] = true; break;
      case PlanStep::Kind::kRange:
        steps[s].pin = FindRangePin(rule, steps, s, bound);
        mark(lit.atom.terms[3]);
        break;
      case PlanStep::Kind::kNegation:
      case PlanStep::Kind::kFilter: break;
    }
  }
}

/// Compiles the join plan for one (rule, delta-occurrence) pair: delta atom
/// first, filters/bindings/assignments/negations hoisted as early as their
/// variables allow, remaining positive atoms ordered greedily by bound-column
/// count with estimated cardinality as tie-break. A nonzero `order_seed`
/// replaces the greedy order with a seeded pseudo-random permutation of the
/// positive atoms (and skips the leapfrog routing) — the fuzzer's
/// plan-order lattice; every permutation is answer-equivalent because
/// safety is re-checked below and match_row verifies already-bound
/// variables regardless of which atom bound them first. Throws kSafety
/// when the rule is not range-restricted.
RulePlan BuildPlan(const Rule& rule, int delta_index, const State& state,
                   uint64_t order_seed,
                   const std::vector<bool>* prebound = nullptr) {
  RulePlan plan;
  plan.num_vars = MaxVar(rule) + 1;
  if (order_seed == 0 && delta_index < 0 && prebound == nullptr &&
      LeapfrogEligible(rule, plan.num_vars)) {
    plan.leapfrog = true;
    return plan;
  }

  size_t n = rule.body.size();
  std::vector<bool> done(n, false);
  // `prebound` marks variables the caller will bind before execution (the
  // DRed re-derivation point probes pre-bind every head variable), so the
  // planner can key probes on them from the first atom.
  std::vector<bool> bound(plan.num_vars, false);
  if (prebound != nullptr) bound = *prebound;
  auto term_known = [&](const Term& t) { return !t.is_var() || bound[t.var]; };
  auto bind_atom_vars = [&](const Atom& atom) {
    for (const Term& t : atom.terms) {
      if (t.is_var()) bound[t.var] = true;
    }
  };
  // Hoists every non-positive literal whose variables are available; repeats
  // because a hoisted assignment/binding can unlock further literals.
  auto hoist = [&]() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t i = 0; i < n; ++i) {
        if (done[i] || rule.body[i].kind == Literal::Kind::kPositive) continue;
        if (std::optional<PlanStep> s = ReadyStep(rule, i, &bound)) {
          plan.steps.push_back(std::move(*s));
          done[i] = true;
          progress = true;
        }
      }
    }
  };

  if (delta_index >= 0) {
    plan.steps.push_back(
        {PlanStep::Kind::kScanDelta, static_cast<size_t>(delta_index), {},
         false, {}});
    bind_atom_vars(rule.body[delta_index].atom);
    done[delta_index] = true;
  }
  hoist();

  Rng order_rng(order_seed);
  for (;;) {
    int best = -1;
    if (order_seed != 0) {
      // Seeded permutation: pick uniformly among the not-yet-planned
      // positive atoms. Deterministic in (seed, rule, delta occurrence).
      size_t candidates = 0;
      for (size_t i = 0; i < n; ++i) {
        if (!done[i] && rule.body[i].kind == Literal::Kind::kPositive) {
          ++candidates;
        }
      }
      if (candidates > 0) {
        size_t pick = order_rng.NextBelow(candidates);
        for (size_t i = 0; i < n; ++i) {
          if (done[i] || rule.body[i].kind != Literal::Kind::kPositive) {
            continue;
          }
          if (pick-- == 0) {
            best = static_cast<int>(i);
            break;
          }
        }
      }
    } else {
      size_t best_bound = 0;
      size_t best_rows = 0;
      for (size_t i = 0; i < n; ++i) {
        if (done[i] || rule.body[i].kind != Literal::Kind::kPositive) continue;
        const Atom& atom = rule.body[i].atom;
        size_t nb = 0;
        for (const Term& t : atom.terms) nb += term_known(t);
        size_t rows = state.Full(atom.pred).CountOfArity(atom.terms.size());
        if (best < 0 || nb > best_bound ||
            (nb == best_bound && rows < best_rows)) {
          best = static_cast<int>(i);
          best_bound = nb;
          best_rows = rows;
        }
      }
    }
    if (best < 0) break;
    const Atom& atom = rule.body[best].atom;
    PlanStep s{PlanStep::Kind::kProbe, static_cast<size_t>(best), {}, false,
               {}};
    for (size_t p = 0; p < atom.terms.size(); ++p) {
      if (term_known(atom.terms[p])) s.key_positions.push_back(p);
    }
    if (s.key_positions.empty()) s.kind = PlanStep::Kind::kScanFull;
    plan.steps.push_back(std::move(s));
    bind_atom_vars(atom);
    done[best] = true;
    hoist();
  }

  RequireRangeRestricted(rule, done, bound);
  PinRanges(rule, prebound != nullptr
                      ? *prebound
                      : std::vector<bool>(plan.num_vars, false),
            &plan);
  return plan;
}

// --- plan execution ----------------------------------------------------------

/// Runs an all-positive all-variable rule through Leapfrog Triejoin.
/// Column-permuted sorted copies (the triejoin precondition) come from the
/// IndexCache — built once per (predicate, column order) per version instead
/// of rematerialized on every call.
void ExecLeapfrog(const Rule& rule, const RulePlan& plan, const State& state,
                  IndexCache* cache, Relation* out, EvalStats* stats,
                  const Relation* dedup_against) {
  std::vector<joins::AtomSpec> atoms;
  atoms.reserve(rule.body.size());
  for (const Literal& lit : rule.body) {
    // (var, column) pairs sorted by var give the triejoin column order.
    std::vector<std::pair<int, size_t>> order;
    order.reserve(lit.atom.terms.size());
    for (size_t p = 0; p < lit.atom.terms.size(); ++p) {
      order.emplace_back(lit.atom.terms[p].var, p);
    }
    std::sort(order.begin(), order.end());
    joins::AtomSpec spec;
    std::vector<size_t> col_order;
    col_order.reserve(order.size());
    for (const auto& [var, col] : order) {
      spec.vars.push_back(var);
      col_order.push_back(col);
    }
    spec.rel = &cache->GetSorted(lit.atom.pred, state.Full(lit.atom.pred),
                                 lit.atom.terms.size(), col_order,
                                 stats ? &stats->sorted_builds : nullptr);
    atoms.push_back(std::move(spec));
  }
  if (stats) ++stats->leapfrog_joins;
  std::vector<Value> scratch;
  scratch.reserve(rule.head.terms.size());
  joins::LeapfrogJoin(
      plan.num_vars, atoms, [&](const std::vector<Value>& binding) {
        scratch.clear();
        for (const Term& t : rule.head.terms) {
          scratch.push_back(t.is_var() ? binding[t.var] : t.constant);
        }
        if (stats) ++stats->tuples_derived;
        EmitRow(scratch, out, dedup_against);
      });
}

/// Executes a compiled plan: scans drive, probes follow, filters prune.
/// `out` receives only tuples not already in `dedup_against`.
///
/// `delta_rel` is the delta extent the kScanDelta step ranges over (null
/// when the plan has none). [drv_begin, drv_end) restricts the *first* plan
/// step's scan to that row range — the parallel evaluator's chunked-driver
/// partitioning; callers only pass a proper sub-range when step 0 is a
/// kScanDelta/kScanFull. Everything this function touches is read-only
/// except `out` and `stats`, both task-local under parallel evaluation.
void ExecPlan(const Rule& rule, const RulePlan& plan, const State& state,
              const Relation* delta_rel, IndexCache* cache, Relation* out,
              EvalStats* stats, const Relation* dedup_against,
              size_t drv_begin, size_t drv_end,
              const Bindings* initial = nullptr) {
  if (plan.leapfrog) {
    ExecLeapfrog(rule, plan, state, cache, out, stats, dedup_against);
    return;
  }
  Bindings bindings = initial != nullptr
                          ? *initial
                          : Bindings(static_cast<size_t>(plan.num_vars));
  // Reusable head-emission buffer: values stream from here straight into the
  // output relation's column arena, so no Tuple is allocated per derivation.
  std::vector<Value> head_buf;
  head_buf.reserve(rule.head.terms.size());
  // Reusable probe-key scratch, one buffer per plan step: a step never
  // re-enters itself while its own probe is live (recursion only descends),
  // so per-step reuse is safe and avoids an allocation per probe.
  std::vector<std::vector<Value>> key_bufs(plan.steps.size());
  // Index handles resolved at most once per step per rule evaluation:
  // extents are frozen while a plan runs (derivations go to a separate
  // relation), so the cache lookup — string/vector key construction plus a
  // map walk — must not sit on the per-probe path.
  std::vector<const HashIndex*> step_index(plan.steps.size(), nullptr);
  auto value_of = [&](const Term& t) -> const Value& {
    // Plan construction guarantees the term is known here.
    return t.is_var() ? *bindings[t.var] : t.constant;
  };

  auto step = [&](auto&& self, size_t si) -> void {
    if (si == plan.steps.size()) {
      EmitHeadColumnar(rule, bindings, head_buf, out, stats, dedup_against);
      return;
    }
    const PlanStep& ps = plan.steps[si];
    const Literal& lit = rule.body[ps.lit_index];

    // Matches `row` against the atom (binding fresh variables, checking
    // constants and repeated occurrences) and recurses on success.
    auto match_row = [&](const TupleRef& row) {
      bool ok = true;
      int newly_bound[8];
      size_t num_newly = 0;
      std::vector<int> overflow;
      for (size_t i = 0; i < lit.atom.terms.size() && ok; ++i) {
        const Term& t = lit.atom.terms[i];
        if (!t.is_var()) {
          ok = row[i] == t.constant;
        } else if (bindings[t.var]) {
          ok = row[i] == *bindings[t.var];
        } else {
          bindings[t.var] = row[i];
          if (num_newly < 8) {
            newly_bound[num_newly++] = t.var;
          } else {
            overflow.push_back(t.var);
          }
        }
      }
      if (ok) self(self, si + 1);
      for (size_t i = 0; i < num_newly; ++i) bindings[newly_bound[i]].reset();
      for (int v : overflow) bindings[v].reset();
    };

    switch (ps.kind) {
      case PlanStep::Kind::kScanDelta: {
        if (stats) ++stats->delta_scans;
        if (delta_rel != nullptr) {
          // Insertion order; never forces the sorted view.
          // kScanDelta is always step 0, so the driver range applies.
          delta_rel->ForEachOfArityRange(lit.atom.terms.size(), drv_begin,
                                         drv_end, match_row);
        }
        return;
      }
      case PlanStep::Kind::kScanFull: {
        if (stats) ++stats->driver_scans;
        const size_t begin = si == 0 ? drv_begin : 0;
        const size_t end = si == 0 ? drv_end : static_cast<size_t>(-1);
        state.Full(lit.atom.pred)
            .ForEachOfArityRange(lit.atom.terms.size(), begin, end,
                                 match_row);
        return;
      }
      case PlanStep::Kind::kProbe: {
        if (!step_index[si]) {
          step_index[si] = &cache->Get(
              lit.atom.pred, state.Full(lit.atom.pred), lit.atom.terms.size(),
              ps.key_positions, stats ? &stats->index_builds : nullptr,
              stats ? &stats->index_repairs : nullptr);
        }
        const HashIndex& index = *step_index[si];
        std::vector<Value>& key = key_bufs[si];
        key.clear();
        for (size_t p : ps.key_positions) {
          key.push_back(value_of(lit.atom.terms[p]));
        }
        if (stats) ++stats->index_probes;
        index.Probe(key, match_row);
        return;
      }
      case PlanStep::Kind::kNegation: {
        std::vector<Value>& probe = key_bufs[si];
        probe.clear();
        for (const Term& t : lit.atom.terms) probe.push_back(value_of(t));
        if (!state.Full(lit.atom.pred).Contains(probe.data(), probe.size())) {
          self(self, si + 1);
        }
        return;
      }
      case PlanStep::Kind::kFilter: {
        if (EvalCompareLit(lit, value_of(lit.lhs), value_of(lit.rhs))) {
          self(self, si + 1);
        }
        return;
      }
      case PlanStep::Kind::kBind: {
        const Term& target = ps.bind_lhs ? lit.lhs : lit.rhs;
        const Term& source = ps.bind_lhs ? lit.rhs : lit.lhs;
        bindings[target.var] = value_of(source);
        self(self, si + 1);
        bindings[target.var].reset();
        return;
      }
      case PlanStep::Kind::kAssign: {
        std::optional<Value> r =
            EvalArith(lit.arith_op, value_of(lit.lhs), value_of(lit.rhs));
        if (!r) return;
        if (bindings[lit.target]) {
          if (*bindings[lit.target] == *r) self(self, si + 1);
          return;
        }
        bindings[lit.target] = *r;
        self(self, si + 1);
        bindings[lit.target].reset();
        return;
      }
      case PlanStep::Kind::kRange: {
        const Value& lo = value_of(lit.atom.terms[0]);
        const Value& hi = value_of(lit.atom.terms[1]);
        const Value& st = value_of(lit.atom.terms[2]);
        const Term& xt = lit.atom.terms[3];
        if (xt.is_var() && !bindings[xt.var]) {
          auto yield = [&](const Value& v) {
            bindings[xt.var] = v;
            self(self, si + 1);
            bindings[xt.var].reset();
          };
          std::optional<int64_t> x;
          if (ps.pin &&
              SolvePinnedRange(*ps.pin, lo, hi, st, value_of(ps.pin->z), &x)) {
            if (stats) ++stats->ranges_solved;
            if (x) EvalRange(lo, hi, st, Value::Int(*x), yield);
          } else {
            EvalRange(lo, hi, st, std::nullopt, yield);
          }
        } else {
          std::optional<Value> x =
              xt.is_var() ? bindings[xt.var]
                          : std::optional<Value>(xt.constant);
          EvalRange(lo, hi, st, x, [&](const Value&) { self(self, si + 1); });
        }
        return;
      }
    }
  };
  step(step, 0);
}

// --- units: the recursion components scheduled on the dependency DAG --------

/// One node of the evaluation DAG: a strongly-connected component of the
/// head-predicate dependency graph (a maximal set of mutually recursive
/// predicates) with all its rules. Each unit runs its own semi-naive
/// fixpoint loop; units joined by no dependency path are independent and
/// may evaluate concurrently. This refines the numeric strata: a stratum
/// whose predicates merely sit at the same negation depth splits into the
/// components that actually recurse together.
struct Unit {
  std::vector<const Rule*> rules;
  std::set<std::string> heads;
  std::vector<int> succs;  // units that depend on this unit
  int num_deps = 0;        // distinct predecessor units
};

/// Groups head predicates into units (Tarjan SCC, iterative) and wires the
/// dependency edges. Deterministic: DFS roots and adjacency follow program
/// order, and units are numbered by the first rule whose head belongs to
/// them. The condensation of a digraph is acyclic, so the result is a DAG;
/// Stratify() has already rejected components containing a negation.
std::vector<Unit> BuildUnits(const Program& program) {
  // Head predicates in first-appearance order, and their dependency
  // adjacency (body references to other head predicates, positive or
  // negative; EDB-only predicates are constants, not graph nodes).
  std::vector<std::string> preds;
  std::map<std::string, int> id_of;
  for (const Rule& rule : program.rules()) {
    if (id_of.emplace(rule.head.pred, preds.size()).second) {
      preds.push_back(rule.head.pred);
    }
  }
  const int n = static_cast<int>(preds.size());
  std::vector<std::vector<int>> adj(n);
  for (const Rule& rule : program.rules()) {
    int h = id_of.at(rule.head.pred);
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kPositive &&
          lit.kind != Literal::Kind::kNegative) {
        continue;
      }
      auto it = id_of.find(lit.atom.pred);
      if (it != id_of.end()) adj[h].push_back(it->second);
    }
  }

  // Iterative Tarjan.
  std::vector<int> index(n, -1), lowlink(n, 0), comp(n, -1);
  std::vector<bool> on_stack(n, false);
  std::vector<int> stack;
  int next_index = 0;
  int num_comps = 0;
  struct Frame {
    int v;
    size_t child;
  };
  for (int root = 0; root < n; ++root) {
    if (index[root] != -1) continue;
    std::vector<Frame> frames{{root, 0}};
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = true;
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.child < adj[f.v].size()) {
        int w = adj[f.v][f.child++];
        if (index[w] == -1) {
          index[w] = lowlink[w] = next_index++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back({w, 0});
        } else if (on_stack[w]) {
          lowlink[f.v] = std::min(lowlink[f.v], index[w]);
        }
        continue;
      }
      if (lowlink[f.v] == index[f.v]) {
        for (;;) {
          int w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          comp[w] = num_comps;
          if (w == f.v) break;
        }
        ++num_comps;
      }
      int v = f.v;
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().v] =
            std::min(lowlink[frames.back().v], lowlink[v]);
      }
    }
  }

  // Units in order of first rule appearance.
  std::vector<Unit> units;
  std::map<int, int> unit_of_comp;
  for (const Rule& rule : program.rules()) {
    int c = comp[id_of.at(rule.head.pred)];
    auto [it, inserted] = unit_of_comp.emplace(c, units.size());
    if (inserted) units.emplace_back();
    Unit& unit = units[it->second];
    unit.rules.push_back(&rule);
    unit.heads.insert(rule.head.pred);
  }

  // Cross-unit dependency edges.
  std::vector<std::set<int>> deps_of(units.size());
  for (int v = 0; v < n; ++v) {
    int u = unit_of_comp.at(comp[v]);
    for (int w : adj[v]) {
      int uw = unit_of_comp.at(comp[w]);
      if (uw != u) deps_of[u].insert(uw);
    }
  }
  for (size_t u = 0; u < units.size(); ++u) {
    units[u].num_deps = static_cast<int>(deps_of[u].size());
    for (int v : deps_of[u]) units[v].succs.push_back(static_cast<int>(u));
  }
  return units;
}

/// Kahn topological order, smallest unit index first — the deterministic
/// sequential schedule (and the tie-break the parallel scheduler's launches
/// approximate).
std::vector<int> TopoOrder(const std::vector<Unit>& units) {
  std::vector<int> remaining(units.size());
  std::set<int> ready;
  for (size_t u = 0; u < units.size(); ++u) {
    remaining[u] = units[u].num_deps;
    if (remaining[u] == 0) ready.insert(static_cast<int>(u));
  }
  std::vector<int> order;
  order.reserve(units.size());
  while (!ready.empty()) {
    int u = *ready.begin();
    ready.erase(ready.begin());
    order.push_back(u);
    for (int v : units[u].succs) {
      if (--remaining[v] == 0) ready.insert(v);
    }
  }
  InternalCheck(order.size() == units.size(), "unit graph is not a DAG");
  return order;
}

// --- aggregate qualification -------------------------------------------------

/// Per-predicate aggregate signature. Every aggregate rule of a predicate
/// must agree on the operator and the group arity (witness arity may differ
/// per rule — a group holds mixed-arity contribution rows, folded in
/// (arity, lex) order exactly like a Rel abstraction's materialized
/// relation; see FoldOrderLess).
struct AggSig {
  AggOp op = AggOp::kMin;
  size_t group_arity = 0;
};

/// Program-wide aggregate well-formedness, checked once per evaluation:
///
///   * a predicate's rules are either all plain or all aggregate (a plain
///     rule unioning extra rows into an aggregated extent has no reading
///     under either engine's semantics);
///   * all aggregate rules of a predicate share one operator and one group
///     arity — the extent is one (group..., result) row per group;
///   * no EDB facts on an aggregate predicate (facts are not contributions
///     and are not foldable rows). `facts` is the EDB the evaluation starts
///     from: program.facts(), or what Evaluate took out of the program.
///
/// Throws kType; returns the signature map for the unit-level checks.
std::map<std::string, AggSig> ValidateAggregates(
    const Program& program, const std::map<std::string, Relation>& facts) {
  std::map<std::string, AggSig> sigs;
  std::set<std::string> plain;
  for (const Rule& rule : program.rules()) {
    if (!rule.agg) {
      plain.insert(rule.head.pred);
      continue;
    }
    AggSig sig{rule.agg->op, rule.head.terms.size()};
    auto [it, inserted] = sigs.emplace(rule.head.pred, sig);
    if (!inserted &&
        (it->second.op != sig.op || it->second.group_arity != sig.group_arity)) {
      throw RelError(ErrorKind::kType,
                     "aggregate rules for '" + rule.head.pred +
                         "' disagree on operator or group arity");
    }
  }
  for (const auto& [pred, sig] : sigs) {
    (void)sig;
    if (plain.count(pred)) {
      throw RelError(ErrorKind::kType,
                     "predicate '" + pred +
                         "' mixes plain and aggregate rules");
    }
    auto it = facts.find(pred);
    if (it != facts.end() && !it->second.empty()) {
      throw RelError(ErrorKind::kType,
                     "aggregate predicate '" + pred +
                         "' cannot carry EDB facts");
    }
  }
  return sigs;
}

/// Static monotonicity qualification for one aggregate rule in a recursive
/// min/max unit. `recursive` holds the unit's aggregate head predicates.
///
/// The semi-naive accumulator never retracts a contribution, so recursion
/// through an aggregate is sound only when every stale contribution (one
/// derived from a since-improved group result) is *dominated* by a fresh
/// one. We enforce that by dataflow: a variable bound from the result
/// column of a same-unit aggregate atom is tainted, taint flows only
/// through direction-preserving arithmetic (+, min, max, and subtraction
/// with an untainted right side), and a tainted value may reach only the
/// aggregated value/witness terms — never a comparison, a negation, a join
/// position, or a group column, all of which could make a stale row
/// non-dominated. Everything else throws kType (callers such as the Rel
/// lowering fall back to the interpreter's replacement semantics).
void CheckMonotoneRule(const Rule& rule, const std::set<std::string>& recursive,
                       const std::map<std::string, AggSig>& sigs) {
  auto fail = [&](const std::string& why) {
    throw RelError(ErrorKind::kType,
                   "non-monotone recursive aggregate in rule for '" +
                       rule.head.pred + "': " + why);
  };
  int max_var = MaxVar(rule);
  std::vector<bool> tainted(static_cast<size_t>(max_var + 1), false);
  // Seed: result columns of same-unit aggregate atoms. Count every
  // positive-atom occurrence of each variable along the way — a tainted
  // variable occurring in two atom positions is an equality join on a
  // changing value.
  std::vector<int> positive_occurrences(static_cast<size_t>(max_var + 1), 0);
  for (const Literal& lit : rule.body) {
    if (lit.kind != Literal::Kind::kPositive) continue;
    for (size_t i = 0; i < lit.atom.terms.size(); ++i) {
      const Term& t = lit.atom.terms[i];
      if (!t.is_var()) continue;
      ++positive_occurrences[t.var];
      if (recursive.count(lit.atom.pred) &&
          i + 1 == lit.atom.terms.size() &&
          lit.atom.terms.size() ==
              sigs.at(lit.atom.pred).group_arity + 1) {
        tainted[t.var] = true;
      }
    }
  }
  // Propagate through assignments to a fixpoint (hoisting means syntactic
  // order is not evaluation order).
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Literal& lit : rule.body) {
      if (lit.kind != Literal::Kind::kAssign || tainted[lit.target]) continue;
      bool lhs_t = lit.lhs.is_var() && tainted[lit.lhs.var];
      bool rhs_t = lit.rhs.is_var() && tainted[lit.rhs.var];
      if (!lhs_t && !rhs_t) continue;
      bool preserving = lit.arith_op == ArithOp::kAdd ||
                        lit.arith_op == ArithOp::kMin ||
                        lit.arith_op == ArithOp::kMax ||
                        (lit.arith_op == ArithOp::kSub && !rhs_t);
      if (!preserving) {
        fail("a changing aggregate result flows through an operation that "
             "does not preserve its direction");
      }
      tainted[lit.target] = true;
      changed = true;
    }
  }
  // Usage restrictions.
  for (int v = 0; v <= max_var; ++v) {
    if (tainted[v] && positive_occurrences[v] > 1) {
      fail("a changing aggregate result is used as a join value");
    }
  }
  for (const Literal& lit : rule.body) {
    switch (lit.kind) {
      case Literal::Kind::kPositive:
        // Seeding already verified: a tainted var's one positive occurrence
        // IS its result-column binding site (any var first seen elsewhere
        // and also at a result column has two occurrences, caught above).
        break;
      case Literal::Kind::kNegative:
        for (const Term& t : lit.atom.terms) {
          if (t.is_var() && tainted[t.var]) {
            fail("a changing aggregate result feeds a negation");
          }
        }
        break;
      case Literal::Kind::kCompare:
        if ((lit.lhs.is_var() && tainted[lit.lhs.var]) ||
            (lit.rhs.is_var() && tainted[lit.rhs.var])) {
          fail("a changing aggregate result feeds a comparison filter");
        }
        break;
      case Literal::Kind::kAssign:
        break;
      case Literal::Kind::kRange:
        for (const Term& t : lit.atom.terms) {
          if (t.is_var() && tainted[t.var]) {
            fail("a changing aggregate result feeds a range generator");
          }
        }
        break;
    }
  }
  for (const Term& t : rule.head.terms) {
    if (t.is_var() && tainted[t.var]) {
      fail("a changing aggregate result appears in a group column");
    }
  }
  // Tainted values ARE allowed in the aggregated value and witness terms —
  // that is the point: stale rows there are dominated by fresher, better
  // ones under the unit's single min/max direction.
}

/// One aggregate group: the chain of its contributions through the
/// predicate's payload store (AggPredState), and its currently published
/// result (absent until the first fold yields a value). The group key is
/// the leading sig.group_arity columns of any contribution, so none is
/// stored apart.
struct AggGroup {
  static constexpr uint32_t kEnd = UINT32_MAX;  // end of a payload chain

  uint32_t head = kEnd;  // first payload; set as the group is created
  uint32_t tail = kEnd;  // last payload, where routing appends
  size_t hash = 0;    // HashRow of the key columns
  std::optional<Value> value;
  bool dirty = false;
};

/// Unit-local aggregate state for one aggregate predicate. `seen` holds
/// every contribution row once and is the dedup authority across ALL rules
/// of the predicate (mixed witness arities included): a contribution row
/// that ever entered a group never re-enters, which both keeps set
/// semantics (sum counts a deduplicated row once) and makes the semi-naive
/// re-derivations idempotent — so a group's payloads need no dedup of their
/// own. Rows are appended to `seen` during a round (by the emit itself in a
/// sequential round, by the barrier merge in a parallel one) and routed to
/// their groups at the round barrier; `routed` counts, per arity, the rows
/// already routed. Routing appends a reference to the row to one flat
/// payload store shared by all groups, chained per group through `next`.
/// Groups live in one flat vector, found by an open-addressing table over
/// their indices; `dirty` lists the groups that received contributions this
/// round.
struct AggPredState {
  AggSig sig;
  Relation seen;
  std::map<size_t, size_t> routed;  // arity -> rows of seen already routed
  std::vector<SeenRow> payloads;    // routed contributions, routing order
  std::vector<uint32_t> next;  // payload -> next of its group, or kEnd
  std::vector<AggGroup> groups;
  std::vector<uint32_t> table;  // group index + 1; 0 = empty slot
  std::vector<uint32_t> dirty;

  /// Routes the rows appended to `seen` since the last call into their
  /// groups, marking each receiving group dirty; returns how many.
  size_t RouteNewRows() {
    size_t routed_now = 0;
    for (size_t arity : seen.Arities()) {
      // SeenRow keeps this address for the unit's lifetime: `seen` only
      // grows, so the arity stays populated, and AggPredState is never
      // copied or moved once rounds start (see Relation::ArenaOfArity).
      const ColumnArena* arena = seen.ArenaOfArity(arity);
      size_t& done = routed[arity];
      for (size_t r = done; r < arena->size(); ++r) {
        SeenRow row{arena, static_cast<uint32_t>(r)};
        const uint32_t id = static_cast<uint32_t>(payloads.size());
        payloads.push_back(row);
        next.push_back(AggGroup::kEnd);
        AggGroup& grp = GroupOf(row);
        if (grp.head == AggGroup::kEnd) {
          grp.head = id;
        } else {
          next[grp.tail] = id;
        }
        grp.tail = id;
        if (!grp.dirty) {
          grp.dirty = true;
          dirty.push_back(static_cast<uint32_t>(&grp - groups.data()));
        }
      }
      routed_now += arena->size() - done;
      done = arena->size();
    }
    return routed_now;
  }

  /// Column `col` of group `g`'s key.
  const Value& Key(const AggGroup& g, size_t col) const {
    return payloads[g.head].At(col);
  }

  /// Group-key order over group indices.
  bool KeyLess(uint32_t a, uint32_t b) const {
    for (size_t c = 0; c < sig.group_arity; ++c) {
      int cmp = Key(groups[a], c).Compare(Key(groups[b], c));
      if (cmp != 0) return cmp < 0;
    }
    return false;
  }

  /// Gathers `g`'s contributions into `out` in fold order (FoldOrderLess).
  void Gather(const AggGroup& g, std::vector<SeenRow>* out) const {
    out->clear();
    for (uint32_t p = g.head; p != AggGroup::kEnd; p = next[p]) {
      out->push_back(payloads[p]);
    }
    const size_t group_arity = sig.group_arity;
    std::sort(out->begin(), out->end(),
              [group_arity](const SeenRow& a, const SeenRow& b) {
                return FoldOrderLess(a, b, group_arity);
              });
  }

 private:
  /// The group keyed by `row`'s first sig.group_arity columns, created
  /// (with no payloads) if new.
  AggGroup& GroupOf(const SeenRow& row) {
    const size_t g = sig.group_arity;
    size_t h = kTupleHashSeed;
    for (size_t i = 0; i < g; ++i) h = HashCombine(h, row.At(i).Hash());
    if (2 * (groups.size() + 1) > table.size()) Grow();
    const size_t mask = table.size() - 1;
    for (size_t pos = MixHash(h) & mask;; pos = (pos + 1) & mask) {
      uint32_t entry = table[pos];
      if (entry == 0) {
        table[pos] = static_cast<uint32_t>(groups.size() + 1);
        AggGroup& grp = groups.emplace_back();
        grp.hash = h;
        return grp;
      }
      AggGroup& grp = groups[entry - 1];
      if (grp.hash != h) continue;
      bool equal = true;
      for (size_t i = 0; i < g && equal; ++i) equal = Key(grp, i) == row.At(i);
      if (equal) return grp;
    }
  }

  void Grow() {
    table.assign(table.empty() ? 16 : 2 * table.size(), 0);
    const size_t mask = table.size() - 1;
    for (size_t i = 0; i < groups.size(); ++i) {
      size_t pos = MixHash(groups[i].hash) & mask;
      while (table[pos] != 0) pos = (pos + 1) & mask;
      table[pos] = static_cast<uint32_t>(i + 1);
    }
  }
};

/// Adds `from`'s counters into `into` (the per-unit/per-slot stats merge;
/// top-level fields strata/units/threads are set once by Evaluate).
void AccumulateCounters(EvalStats* into, const EvalStats& from) {
  into->iterations += from.iterations;
  into->tuples_derived += from.tuples_derived;
  into->index_builds += from.index_builds;
  into->index_repairs += from.index_repairs;
  into->sorted_builds += from.sorted_builds;
  into->index_probes += from.index_probes;
  into->full_scans += from.full_scans;
  into->driver_scans += from.driver_scans;
  into->delta_scans += from.delta_scans;
  into->leapfrog_joins += from.leapfrog_joins;
  into->ranges_solved += from.ranges_solved;
  into->aggregate_updates += from.aggregate_updates;
  into->groups_improved += from.groups_improved;
  into->par_tasks += from.par_tasks;
  into->par_steals += from.par_steals;
  into->par_merges += from.par_merges;
  into->delta_inserts += from.delta_inserts;
  into->delta_deletes += from.delta_deletes;
  into->rederived += from.rederived;
}

/// Driver scans shorter than this run as one task; longer ones split into
/// row-range chunks of at least this many rows. Chosen so a chunk amortizes
/// task dispatch (~µs) against a few thousand probe/emit operations.
constexpr size_t kMinChunkRows = 64;

/// Runs one unit's fixpoint loop to completion. `indexed` selects the
/// planned semi-naive strategy; otherwise every round re-derives each rule
/// in its SafetyOrder over the full extents (kNaive, always sequential).
/// Sequential when `pool` is null; otherwise each (rule, delta-occurrence)
/// plan becomes a task per round (large drivers split into row-range
/// chunks), tasks emit into per-thread staging relations deduplicated
/// against the frozen extents, and the staging buffers merge into the
/// canonical state at the round barrier — the single-writer discipline
/// that keeps every concurrent read lock-free. Counter totals land in
/// `out_stats` under `stats_mu`.
/// `plan_seed` is EvalOptions::plan_order_seed; `rules_base` is the start
/// of the program's rule vector, giving every rule a stable index so the
/// per-(rule, delta) permutation sub-seed is identical across runs (rule
/// POINTERS vary run to run and must never feed the seed).
/// `seed`, when non-null, switches the unit into *maintenance* mode: the
/// initial full round is skipped and the fixpoint resumes with `*seed` as
/// the first delta (tuples already merged into the full extents by the
/// caller — the delta ⊆ full invariant semi-naive relies on). The first
/// round runs one delta-variant per positive occurrence of ANY seeded
/// predicate (EDB or lower-unit preds included, not just this unit's
/// heads); later rounds revert to the standard heads-only filter. `collect`,
/// when non-null, accumulates every tuple the unit newly added to the full
/// extents — the downstream delta for units that depend on this one.
void EvalUnit(const Unit& unit, bool indexed, int max_iterations,
              uint64_t plan_seed, const Rule* rules_base, State* state,
              IndexCache* cache, ThreadPool* pool, EvalStats* out_stats,
              std::mutex* stats_mu,
              const DeltaMap* seed = nullptr, DeltaMap* collect = nullptr) {
  EvalStats local;
  // Fires when max_iterations > 0 and this unit's fixpoint exceeds it — the
  // guard against value-generating recursion that never converges.
  auto check_cap = [&] {
    if (max_iterations <= 0 || local.iterations <= max_iterations) return;
    std::string heads;
    for (const std::string& pred : unit.heads) {
      if (!heads.empty()) heads += ", ";
      heads += pred;
    }
    throw RelError(ErrorKind::kNonConvergent,
                   "datalog fixpoint for unit {" + heads +
                       "} did not converge within max_iterations = " +
                       std::to_string(max_iterations) +
                       " rounds; the partial extent is discarded");
  };

  // ---- Aggregate preparation. Aggregate rules are rewritten to internal
  // "contribution rules" — same body, head extended with the witness and
  // value terms — and run through the ordinary plan/scan machinery. Their
  // derivations land in per-group accumulators instead of the extents; the
  // dirty groups refold at the round barrier (publish_round below), and a
  // changed (group..., result) row replaces the old extent row and becomes
  // the next delta: monotone aggregate updates instead of set union.
  std::map<std::string, AggPredState> agg;
  std::map<std::string, AggSig> agg_sigs;
  for (const Rule* rule : unit.rules) {
    if (!rule->agg) continue;
    AggSig sig{rule->agg->op, rule->head.terms.size()};
    agg_sigs.emplace(rule->head.pred, sig);  // consistency checked program-wide
    agg[rule->head.pred].sig = sig;
  }
  bool agg_recursive = false;
  if (!agg.empty()) {
    InternalCheck(seed == nullptr && collect == nullptr,
                  "aggregate units cannot run in maintenance mode");
    for (const Rule* rule : unit.rules) {
      for (const Literal& lit : rule->body) {
        if (lit.kind != Literal::Kind::kPositive ||
            agg.count(lit.atom.pred) == 0) {
          continue;
        }
        agg_recursive = true;
        if (!rule->agg) {
          throw RelError(
              ErrorKind::kType,
              "plain rule for '" + rule->head.pred +
                  "' reads aggregate predicate '" + lit.atom.pred +
                  "' inside the same recursive component; aggregate results "
                  "are only stable once their component converges");
        }
      }
    }
  }
  if (agg_recursive) {
    // One improvement direction per component: every aggregate rule must
    // share the operator, and for min/max every rule must pass the static
    // monotonicity qualification. Recursive sum/count carries no static
    // check — the dynamic emit-once guard in publish_round throws the
    // moment a contribution reaches an already-published group.
    AggOp recursive_op = AggOp::kMin;
    bool first = true;
    for (const Rule* rule : unit.rules) {
      if (!rule->agg) continue;
      if (first) {
        recursive_op = rule->agg->op;
        first = false;
      } else if (rule->agg->op != recursive_op) {
        throw RelError(ErrorKind::kType,
                       "mixed aggregate operators in one recursive component "
                       "(every rule must improve results in one direction)");
      }
    }
    if (recursive_op == AggOp::kMin || recursive_op == AggOp::kMax) {
      std::set<std::string> rec_preds;
      for (const auto& [pred, st] : agg) {
        (void)st;
        rec_preds.insert(pred);
      }
      for (const Rule* rule : unit.rules) {
        CheckMonotoneRule(*rule, rec_preds, agg_sigs);
      }
    }
  }

  // The executable rule list: plain rules as written, aggregate rules in
  // their expanded contribution form. `index` is the ORIGINAL rule's stable
  // index (the expansion keeps the body, so the plan permutation space is
  // unchanged) — never pointer arithmetic on the expanded storage.
  struct ExecRule {
    const Rule* rule;
    size_t index;
  };
  std::vector<Rule> expanded;
  expanded.reserve(unit.rules.size());
  std::vector<ExecRule> exec_rules;
  exec_rules.reserve(unit.rules.size());
  for (const Rule* rule : unit.rules) {
    size_t index = static_cast<size_t>(rule - rules_base);
    if (!rule->agg) {
      exec_rules.push_back({rule, index});
      continue;
    }
    Rule ex;
    ex.head.pred = rule->head.pred;
    ex.head.terms = rule->head.terms;
    for (const Term& w : rule->agg->witness) ex.head.terms.push_back(w);
    ex.head.terms.push_back(rule->agg->value);
    ex.body = rule->body;
    expanded.push_back(std::move(ex));
    exec_rules.push_back({&expanded.back(), index});
  }

  // kNaive's literal orders, computed before the first round runs — the
  // point at which the indexed path's first-round plans reject an unsafe
  // rule, so both strategies raise the same first error.
  std::map<const Rule*, std::vector<size_t>> naive_orders;
  if (!indexed) {
    for (const ExecRule& er : exec_rules) {
      naive_orders.emplace(er.rule, SafetyOrder(*er.rule));
    }
  }

  std::map<std::pair<const Rule*, int>, RulePlan> plans;
  // Plans are built at first use (cardinality estimates read the state at
  // that moment) and reused for the rest of the unit — the same timing in
  // sequential and parallel mode, so both produce identical plans.
  auto plan_for = [&](const Rule* rule, size_t rule_index,
                      int delta_index) -> const RulePlan& {
    auto key = std::make_pair(rule, delta_index);
    auto it = plans.find(key);
    if (it == plans.end()) {
      uint64_t sub_seed = plan_seed;
      if (sub_seed != 0) {
        // SplitMix-style mix of (seed, rule index, delta occurrence) so
        // every plan draws an independent, reproducible permutation.
        sub_seed ^= static_cast<uint64_t>(rule_index) *
                    0x9E3779B97F4A7C15ULL;
        sub_seed ^= static_cast<uint64_t>(delta_index + 2) *
                    0xBF58476D1CE4E5B9ULL;
        if (sub_seed == 0) sub_seed = 1;
      }
      it = plans.emplace(key, BuildPlan(*rule, delta_index, *state, sub_seed))
               .first;
    }
    return it->second;
  };

  DeltaMap delta;
  // One round entry: the executable rule, its stable plan-seed index, and
  // the delta occurrence (-1 for a full pass).
  struct Pair {
    const Rule* rule;
    size_t index;
    int di;
  };
  // Emit-site dedup authority: the full extent for plain heads, the
  // contributions-seen relation for aggregate heads (contribution rows
  // never touch the extents directly).
  auto dedup_for = [&](const Rule* rule) -> const Relation* {
    auto it = agg.find(rule->head.pred);
    return it == agg.end() ? &state->full->at(rule->head.pred)
                           : &it->second.seen;
  };
  // Where a sequential emit goes: plain heads into the round's `added`,
  // deduplicated against the full extent; aggregate heads straight into
  // `seen`, whose only reader during a round is this emit — so the insert
  // itself is the dedup, and the barrier routes the appended rows.
  struct EmitTarget {
    Relation* out;
    const Relation* dedup_against;
  };
  auto target_for = [&](const Rule* rule, DeltaMap* added) -> EmitTarget {
    auto it = agg.find(rule->head.pred);
    if (it != agg.end()) return {&it->second.seen, nullptr};
    return {&(*added)[rule->head.pred], &state->full->at(rule->head.pred)};
  };

  // Evaluates the round's (rule, delta-occurrence) pairs: plain derivations
  // into `added`, aggregate contributions into their predicate's `seen`.
  auto run_round = [&](const std::vector<Pair>& pairs, DeltaMap* added) {
    if (!indexed) {
      for (const auto& pr : pairs) {
        EmitTarget t = target_for(pr.rule, added);
        EvalRuleNaive(*pr.rule, naive_orders.at(pr.rule), *state, t.out,
                      &local, t.dedup_against);
      }
      return;
    }

    // Task list: one entry per (rule, delta) pair, or several when the
    // driver scan is large enough to chunk.
    struct Task {
      const Rule* rule;
      const RulePlan* plan;
      const Relation* delta_rel;
      size_t begin, end;
    };
    std::vector<Task> tasks;
    for (const auto& pr : pairs) {
      const Rule* rule = pr.rule;
      const int di = pr.di;
      const RulePlan& plan = plan_for(rule, pr.index, di);
      const Relation* delta_rel =
          di >= 0 ? FindDelta(delta, rule->body[di].atom.pred) : nullptr;
      size_t rows = static_cast<size_t>(-1);  // "not chunkable"
      if (pool != nullptr && !plan.leapfrog && !plan.steps.empty()) {
        const PlanStep& s0 = plan.steps[0];
        const Literal& lit = rule->body[s0.lit_index];
        if (s0.kind == PlanStep::Kind::kScanDelta) {
          rows = delta_rel == nullptr
                     ? 0
                     : delta_rel->CountOfArity(lit.atom.terms.size());
        } else if (s0.kind == PlanStep::Kind::kScanFull) {
          rows = state->Full(lit.atom.pred)
                     .CountOfArity(lit.atom.terms.size());
        }
      }
      if (pool == nullptr || rows == static_cast<size_t>(-1) ||
          rows < 2 * kMinChunkRows) {
        tasks.push_back({rule, &plan, delta_rel, 0, static_cast<size_t>(-1)});
        continue;
      }
      size_t chunks =
          std::min(static_cast<size_t>(pool->num_slots()) * 2,
                   (rows + kMinChunkRows - 1) / kMinChunkRows);
      size_t per = (rows + chunks - 1) / chunks;
      for (size_t b = 0; b < rows; b += per) {
        tasks.push_back({rule, &plan, delta_rel, b, std::min(b + per, rows)});
      }
    }

    if (pool == nullptr) {
      for (const Task& t : tasks) {
        EmitTarget target = target_for(t.rule, added);
        ExecPlan(*t.rule, *t.plan, *state, t.delta_rel, cache, target.out,
                 &local, target.dedup_against, t.begin, t.end);
      }
      return;
    }

    // Per-thread staging: each slot is written by at most one thread at a
    // time (a thread runs one task at a time and every task addresses its
    // own slot), so no emit ever takes a lock. Aggregate contributions stage
    // too, deduplicated against the frozen `seen`.
    struct SlotStage {
      std::map<std::string, Relation> rels;
      EvalStats stats;
    };
    std::vector<SlotStage> staging(pool->num_slots());
    auto exec_task = [&](const Task& t) {
      SlotStage& stage = staging[pool->CurrentSlot()];
      ExecPlan(*t.rule, *t.plan, *state, t.delta_rel, cache,
               &stage.rels[t.rule->head.pred], &stage.stats,
               dedup_for(t.rule), t.begin, t.end);
    };
    if (tasks.size() == 1) {
      // A single task gains nothing from dispatch; run it right here.
      exec_task(tasks[0]);
    } else {
      local.par_tasks += tasks.size();
      ThreadPool::TaskGroup group(pool);
      for (const Task& t : tasks) {
        group.Run([&exec_task, t] { exec_task(t); });
      }
      group.Wait();
    }
    // Round barrier: merge the staging buffers (slot order, deterministic)
    // into `added`, or into `seen` for aggregate contributions. Emit-site
    // dedup already dropped tuples present in the full extents (or `seen`);
    // InsertAll collapses duplicates derived by different tasks.
    for (SlotStage& stage : staging) {
      for (auto& [pred, rel] : stage.rels) {
        if (rel.empty()) continue;
        auto agg_it = agg.find(pred);
        (agg_it == agg.end() ? (*added)[pred] : agg_it->second.seen)
            .InsertAll(rel);
        ++local.par_merges;
      }
      AccumulateCounters(&local, stage.stats);
    }
  };

  // Round barrier, part two: publishes `added` into the canonical state and
  // returns the next delta. Plain predicates merge tuple-wise. Aggregate
  // predicates route the contribution rows appended to `seen` this round
  // into their groups, refold the dirty groups in group-key order, and
  // replace each changed (group..., result) extent row — the changed rows
  // ARE the aggregate predicate's next delta. Runs sequentially on the
  // unit's thread, so the single-writer extent discipline holds.
  std::vector<Value> row_buf;       // one result row at a time
  std::vector<SeenRow> fold_buf;    // one group's payloads at a time
  auto publish_round = [&](DeltaMap added) -> DeltaMap {
    for (auto& [pred, rel] : added) {
      state->full->at(pred).InsertAll(rel);
      if (collect) (*collect)[pred].InsertAll(rel);
    }
    for (auto& [pred, ap] : agg) {
      local.aggregate_updates += ap.RouteNewRows();
      if (ap.dirty.empty()) continue;
      const size_t g = ap.sig.group_arity;
      // Group-key order makes the first error raised deterministic.
      std::sort(ap.dirty.begin(), ap.dirty.end(),
                [&ap](uint32_t a, uint32_t b) { return ap.KeyLess(a, b); });
      Relation changed;
      Relation& extent = state->full->at(pred);
      for (uint32_t index : ap.dirty) {
        AggGroup& grp = ap.groups[index];
        grp.dirty = false;
        if (grp.value.has_value() &&
            (ap.sig.op == AggOp::kSum || ap.sig.op == AggOp::kCount)) {
          // Emit-once: a sum/count result already fed back into the
          // fixpoint cannot absorb further contributions — unlike min/max,
          // a revised sum does not dominate derivations made from the stale
          // one. Level-indexed formulations (every contribution to a group
          // arrives in one round) evaluate cleanly; anything else is
          // non-monotone and must take the interpreter's semantics.
          throw RelError(
              ErrorKind::kType,
              std::string("recursive ") + AggOpName(ap.sig.op) + " for '" +
                  pred +
                  "' received a contribution after its group published; "
                  "only level-indexed recursive sums are monotone");
        }
        ap.Gather(grp, &fold_buf);
        std::optional<Value> folded = FoldPayloads(ap.sig.op, fold_buf);
        if (!folded.has_value()) {
          if (grp.value.has_value()) {
            throw RelError(ErrorKind::kType,
                           "aggregate result for '" + pred +
                               "' became undefined after publication "
                               "(unordered payloads entered its bucket)");
          }
          continue;  // empty-or-undefined group: no row, never a default
        }
        row_buf.clear();
        for (size_t c = 0; c < g; ++c) row_buf.push_back(ap.Key(grp, c));
        if (grp.value.has_value()) {
          if (*grp.value == *folded) continue;
          // The refold ran over a superset of the old payloads, so min can
          // only decrease and max only increase; a regression means a
          // non-monotone shape escaped static qualification.
          Value::Ordering o = grp.value->NumericCompare(*folded);
          bool regressed =
              o == Value::Ordering::kUnordered ||
              (ap.sig.op == AggOp::kMin ? o == Value::Ordering::kLess
                                        : o == Value::Ordering::kGreater);
          if (regressed) {
            throw RelError(ErrorKind::kType,
                           "aggregate result for '" + pred +
                               "' regressed during the fixpoint; "
                               "non-monotone recursion");
          }
          row_buf.push_back(*grp.value);
          extent.Erase(row_buf.data(), row_buf.size());
          row_buf.pop_back();
        }
        row_buf.push_back(*folded);
        const size_t h = HashRow(row_buf.data(), row_buf.size());
        extent.InsertHashed(row_buf.data(), row_buf.size(), h);
        changed.InsertHashed(row_buf.data(), row_buf.size(), h);
        grp.value = std::move(folded);
        ++local.groups_improved;
      }
      ap.dirty.clear();
      added[pred] = std::move(changed);
    }
    return added;
  };

  bool seeded_round = seed != nullptr;
  if (seed == nullptr) {
    // Initial round: evaluate every rule of the unit fully.
    std::vector<Pair> init_pairs;
    init_pairs.reserve(exec_rules.size());
    for (const ExecRule& er : exec_rules) {
      init_pairs.push_back({er.rule, er.index, -1});
    }
    DeltaMap added;
    run_round(init_pairs, &added);
    delta = publish_round(std::move(added));
    ++local.iterations;
    check_cap();
  } else {
    delta = *seed;
  }

  // Iterate to fixpoint within the unit.
  for (;;) {
    bool any_delta = false;
    for (const auto& [pred, rel] : delta) {
      (void)pred;
      if (!rel.empty()) any_delta = true;
    }
    if (!any_delta) break;
    ++local.iterations;
    check_cap();
    std::vector<Pair> pairs;
    for (const ExecRule& er : exec_rules) {
      const Rule* rule = er.rule;
      if (indexed) {
        // One pass per recursive-atom occurrence, with that occurrence
        // restricted to the delta. The first maintenance round widens the
        // filter to every seeded predicate (the seed can live on EDB or
        // lower-unit preds no regular round would treat as a delta).
        for (size_t li = 0; li < rule->body.size(); ++li) {
          const Literal& lit = rule->body[li];
          if (lit.kind != Literal::Kind::kPositive) continue;
          if (seeded_round) {
            const Relation* d = FindDelta(delta, lit.atom.pred);
            if (d == nullptr || d->empty()) continue;
          } else if (unit.heads.count(lit.atom.pred) == 0) {
            continue;
          }
          pairs.push_back({rule, er.index, static_cast<int>(li)});
        }
      } else {
        pairs.push_back({rule, er.index, -1});
      }
    }
    seeded_round = false;
    DeltaMap next_added;
    run_round(pairs, &next_added);
    delta = publish_round(std::move(next_added));
  }

  std::lock_guard<std::mutex> lock(*stats_mu);
  AccumulateCounters(out_stats, local);
}

}  // namespace

std::string EvalStats::ToString() const {
  std::ostringstream os;
  os << "strata=" << strata << " units=" << units << " threads=" << threads
     << " iterations=" << iterations << " tuples_derived=" << tuples_derived
     << " index_builds=" << index_builds << " index_repairs=" << index_repairs
     << " sorted_builds=" << sorted_builds
     << " index_probes=" << index_probes << " full_scans=" << full_scans
     << " driver_scans=" << driver_scans << " delta_scans=" << delta_scans
     << " leapfrog_joins=" << leapfrog_joins
     << " ranges_solved=" << ranges_solved
     << " aggregate_updates=" << aggregate_updates
     << " groups_improved=" << groups_improved << " par_tasks=" << par_tasks
     << " par_steals=" << par_steals << " par_merges=" << par_merges
     << " delta_inserts=" << delta_inserts << " delta_deletes=" << delta_deletes
     << " rederived=" << rederived;
  return os.str();
}

namespace {

/// Evaluate's body: runs `program`'s rules from the starting `extents`
/// (its EDB), which become the returned fixpoint.
std::map<std::string, Relation> EvaluateFrom(
    const Program& program, std::map<std::string, Relation> extents,
    const EvalOptions& options, EvalStats* stats) {
  EvalStats scratch;
  EvalStats* s = stats ? stats : &scratch;
  if (program.HasAggregates()) ValidateAggregates(program, extents);
  std::map<std::string, int> stratum = Stratify(program);
  int max_stratum = 0;
  for (const auto& [pred, st] : stratum) {
    (void)pred;
    max_stratum = std::max(max_stratum, st);
  }
  s->strata = max_stratum + 1;
  const bool indexed = options.strategy == Strategy::kSemiNaive;
  int num_threads = options.num_threads == 0 ? ThreadPool::HardwareThreads()
                                             : options.num_threads;
  // The naive oracle is sequential by definition.
  const bool parallel = indexed && num_threads > 1;

  // Freeze the extent map's structure before anything runs: every head
  // predicate gets its entry now, so concurrent units never mutate the map
  // itself — only the relation each owns exclusively.
  for (const Rule& rule : program.rules()) extents[rule.head.pred];
  State state;
  state.full = &extents;
  IndexCache index_cache;

  std::vector<Unit> units = BuildUnits(program);
  s->units = static_cast<int>(units.size());
  s->threads = parallel ? num_threads : 1;
  std::mutex stats_mu;

  const Rule* rules_base = program.rules().data();
  if (!parallel) {
    for (int u : TopoOrder(units)) {
      EvalUnit(units[u], indexed, options.max_iterations,
               options.plan_order_seed, rules_base, &state, &index_cache,
               /*pool=*/nullptr, s, &stats_mu);
    }
    return extents;
  }

  // Topologically schedule the unit DAG on the pool: a unit launches as
  // soon as its last dependency completes; independent units (and their
  // inner chunk tasks) interleave freely across the workers. The pool is
  // the process-wide shared one for this thread count — spawning (and
  // joining) a fresh pool per Evaluate call was pure overhead on small
  // fixpoints and is the first thing incremental maintenance would feel.
  ThreadPool& pool = ThreadPool::Shared(num_threads);
  ThreadPool::Stats pool_before = pool.stats();
  std::vector<std::atomic<int>> remaining(units.size());
  for (size_t u = 0; u < units.size(); ++u) {
    remaining[u].store(units[u].num_deps, std::memory_order_relaxed);
  }
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> launched{0};
  ThreadPool::TaskGroup group(&pool);
  std::function<void(int)> launch = [&](int u) {
    launched.fetch_add(1, std::memory_order_relaxed);
    group.Run([&, u] {
      try {
        if (!failed.load(std::memory_order_acquire)) {
          EvalUnit(units[u], indexed, options.max_iterations,
                   options.plan_order_seed, rules_base, &state, &index_cache,
                   &pool, s, &stats_mu);
        }
      } catch (...) {
        // Successors are never launched; Wait() rethrows this.
        failed.store(true, std::memory_order_release);
        throw;
      }
      for (int v : units[u].succs) {
        if (remaining[v].fetch_sub(1, std::memory_order_acq_rel) == 1) {
          launch(v);
        }
      }
    });
  };
  for (size_t u = 0; u < units.size(); ++u) {
    if (units[u].num_deps == 0) launch(static_cast<int>(u));
  }
  group.Wait();

  // Unit-launch tasks counted here, chunk tasks locally in EvalUnit — the
  // same population a per-call pool used to report. Steals come from the
  // shared pool's cumulative counters, so the delta is approximate when
  // other evaluations overlap on the same pool (par_* counters are
  // documented as scheduling-dependent and excluded from the fuzzer's
  // equality invariants).
  s->par_tasks += launched.load(std::memory_order_relaxed);
  ThreadPool::Stats pool_after = pool.stats();
  s->par_steals += pool_after.TotalSteals() - pool_before.TotalSteals();
  return extents;
}

}  // namespace

std::map<std::string, Relation> Evaluate(const Program& program,
                                         const EvalOptions& options,
                                         EvalStats* stats) {
  return EvaluateFrom(program, program.facts(), options, stats);
}

std::map<std::string, Relation> Evaluate(Program* program,
                                         const EvalOptions& options,
                                         EvalStats* stats) {
  return EvaluateFrom(*program, program->TakeFacts(), options, stats);
}

bool EdbDelta::empty() const {
  for (const auto& [pred, rel] : inserts) {
    (void)pred;
    if (!rel.empty()) return false;
  }
  for (const auto& [pred, rel] : deletes) {
    (void)pred;
    if (!rel.empty()) return false;
  }
  return true;
}

DeltaResult EvaluateDelta(const Program& program,
                          const std::map<std::string, Relation>& base_facts,
                          const EdbDelta& delta,
                          std::map<std::string, Relation>* extents,
                          const EvalOptions& options, EvalStats* stats,
                          IndexCache* cache) {
  DeltaResult result;
  // Aggregate rules cannot be maintained: the per-group accumulators fold
  // monotonically and never retract a contribution, while an EDB delta can
  // delete one — neither the resumed semi-naive pass (it has no group
  // state) nor DRed (group rows are folds, not unions of derivations)
  // models that. Refuse before touching anything; the caller's contract is
  // to fall back to a full recompute.
  if (program.HasAggregates()) {
    result.supported = false;
    result.unsupported_reason =
        "aggregate rules cannot be maintained incrementally; recompute";
    return result;
  }

  // Predicates the delta can possibly touch: the changed predicates closed
  // over rule dependencies (positive and negative edges alike).
  std::set<std::string> affected;
  for (const auto& [pred, rel] : delta.inserts) {
    if (!rel.empty()) affected.insert(pred);
  }
  for (const auto& [pred, rel] : delta.deletes) {
    if (!rel.empty()) affected.insert(pred);
  }
  if (affected.empty()) return result;
  for (bool grew = true; grew;) {
    grew = false;
    for (const Rule& rule : program.rules()) {
      if (affected.count(rule.head.pred)) continue;
      for (const Literal& lit : rule.body) {
        if (lit.kind != Literal::Kind::kPositive &&
            lit.kind != Literal::Kind::kNegative) {
          continue;
        }
        if (affected.count(lit.atom.pred)) {
          affected.insert(rule.head.pred);
          grew = true;
          break;
        }
      }
    }
  }
  // Negation over an affected predicate is non-monotone under the delta —
  // an insert-only update can then both create and destroy derived tuples,
  // which neither the resumed semi-naive pass nor DRed models. Punt to a
  // full recompute (the caller's contract).
  for (const Rule& rule : program.rules()) {
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kNegative &&
          affected.count(lit.atom.pred)) {
        result.supported = false;
        result.unsupported_reason =
            "negation over delta-affected predicate '" + lit.atom.pred + "'";
        return result;
      }
    }
  }

  EvalStats scratch;
  EvalStats* s = stats ? stats : &scratch;
  std::map<std::string, int> stratum = Stratify(program);
  int max_stratum = 0;
  for (const auto& [pred, st] : stratum) {
    (void)pred;
    max_stratum = std::max(max_stratum, st);
  }
  s->strata = max_stratum + 1;
  int num_threads = options.num_threads == 0 ? ThreadPool::HardwareThreads()
                                             : options.num_threads;
  ThreadPool* pool =
      num_threads > 1 ? &ThreadPool::Shared(num_threads) : nullptr;
  IndexCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  std::mutex stats_mu;

  // Freeze the extent map's structure up front, same discipline as
  // Evaluate: every rule head and every delta predicate has its entry
  // before anything runs.
  for (const Rule& rule : program.rules()) (*extents)[rule.head.pred];
  for (const auto& [pred, rel] : delta.inserts) {
    (void)rel;
    (*extents)[pred];
  }
  for (const auto& [pred, rel] : delta.deletes) {
    (void)rel;
    (*extents)[pred];
  }

  State state;
  state.full = extents;
  std::vector<Unit> units = BuildUnits(program);
  std::vector<int> order = TopoOrder(units);
  s->units = static_cast<int>(units.size());
  s->threads = pool != nullptr ? num_threads : 1;
  const Rule* rules_base = program.rules().data();

  EvalStats local;  // the sequential delete phases' counters

  // ---- Deletes: DRed. Phase 1, over-delete — everything with a derivation
  // through a deleted tuple, computed semi-naive style against the OLD
  // state (extents are not touched until the over-delete set is complete).
  DeltaMap del;
  for (const auto& [pred, rel] : delta.deletes) {
    const Relation& target = extents->at(pred);
    rel.ForEach([&](const TupleRef& t) {
      if (target.Contains(t)) del[pred].Insert(t);
    });
  }
  bool any_del = false;
  for (const auto& [pred, rel] : del) {
    (void)pred;
    if (!rel.empty()) any_del = true;
  }

  if (any_del) {
    std::map<std::pair<const Rule*, int>, RulePlan> od_plans;
    auto od_plan = [&](const Rule* rule, int li) -> const RulePlan& {
      auto key = std::make_pair(rule, li);
      auto it = od_plans.find(key);
      if (it == od_plans.end()) {
        it = od_plans.emplace(key, BuildPlan(*rule, li, state, 0)).first;
      }
      return it->second;
    };
    DeltaMap frontier = del;
    for (;;) {
      bool any = false;
      for (const auto& [pred, rel] : frontier) {
        (void)pred;
        if (!rel.empty()) {
          any = true;
          break;
        }
      }
      if (!any) break;
      ++local.iterations;
      DeltaMap newly;
      for (const Rule& rule : program.rules()) {
        for (size_t li = 0; li < rule.body.size(); ++li) {
          const Literal& lit = rule.body[li];
          if (lit.kind != Literal::Kind::kPositive) continue;
          const Relation* fr = FindDelta(frontier, lit.atom.pred);
          if (fr == nullptr || fr->empty()) continue;
          Relation cand;
          ExecPlan(rule, od_plan(&rule, static_cast<int>(li)), state, fr,
                   cache, &cand, &local, /*dedup_against=*/nullptr, 0,
                   static_cast<size_t>(-1));
          const Relation& head_ext = extents->at(rule.head.pred);
          Relation& head_del = del[rule.head.pred];
          Relation& head_new = newly[rule.head.pred];
          cand.ForEach([&](const TupleRef& t) {
            if (head_ext.Contains(t) && !head_del.Contains(t)) {
              head_new.Insert(t);
            }
          });
        }
      }
      for (auto& [pred, rel] : newly) del[pred].InsertAll(rel);
      frontier = std::move(newly);
    }

    // Phase 2, removal: erase the whole over-delete set at once.
    for (const auto& [pred, rel] : del) {
      Relation& target = extents->at(pred);
      std::vector<Tuple> doomed;
      doomed.reserve(rel.size());
      rel.ForEach([&](const TupleRef& t) { doomed.push_back(t.ToTuple()); });
      for (const Tuple& t : doomed) target.Erase(t);
    }

    // Phase 3, re-derivation: restore over-deleted tuples with a surviving
    // alternative proof. Units go in topo order so a tuple's supporting
    // predicates are already settled when it is probed; within a unit a
    // worklist loop handles mutual recursion (restoring one tuple can
    // re-support another). Probes pre-bind every head variable, so each
    // check is a point lookup, not a fixpoint. Re-derived tuples need no
    // downstream *insert* propagation: deletion never creates tuples, so
    // anything downstream of a restored tuple was only over-deleted via
    // this tuple and gets restored by its own unit's pass.
    for (int u : order) {
      const Unit& unit = units[u];
      struct PendingDel {
        const std::string* pred;
        Tuple t;
      };
      std::vector<PendingDel> pend;
      for (const std::string& pred : unit.heads) {
        const Relation* d = FindDelta(del, pred);
        if (d == nullptr) continue;
        d->ForEach(
            [&](const TupleRef& t) { pend.push_back({&pred, t.ToTuple()}); });
      }
      if (pend.empty()) continue;

      std::map<const Rule*, RulePlan> rd_plans;
      auto rd_plan = [&](const Rule* rule) -> const RulePlan& {
        auto it = rd_plans.find(rule);
        if (it == rd_plans.end()) {
          std::vector<bool> prebound(static_cast<size_t>(MaxVar(*rule) + 1),
                                     false);
          for (const Term& t : rule->head.terms) {
            if (t.is_var()) prebound[t.var] = true;
          }
          it = rd_plans.emplace(rule, BuildPlan(*rule, -1, state, 0, &prebound))
                   .first;
        }
        return it->second;
      };
      auto is_supported = [&](const std::string& pred, const Tuple& t) {
        auto bf = base_facts.find(pred);
        if (bf != base_facts.end() && bf->second.Contains(t)) return true;
        for (const Rule* rule : unit.rules) {
          if (rule->head.pred != pred) continue;
          if (rule->head.terms.size() != t.arity()) continue;
          const RulePlan& plan = rd_plan(rule);
          Bindings init(static_cast<size_t>(plan.num_vars));
          bool ok = true;
          for (size_t i = 0; i < rule->head.terms.size() && ok; ++i) {
            const Term& ht = rule->head.terms[i];
            if (!ht.is_var()) {
              ok = ht.constant == t[i];
            } else if (init[ht.var]) {
              ok = *init[ht.var] == t[i];
            } else {
              init[ht.var] = t[i];
            }
          }
          if (!ok) continue;
          Relation out;
          ExecPlan(*rule, plan, state, /*delta_rel=*/nullptr, cache, &out,
                   &local, /*dedup_against=*/nullptr, 0,
                   static_cast<size_t>(-1), &init);
          if (!out.empty()) return true;
        }
        return false;
      };

      for (bool changed = true; changed;) {
        changed = false;
        for (auto it = pend.begin(); it != pend.end();) {
          if (is_supported(*it->pred, it->t)) {
            extents->at(*it->pred).Insert(it->t);
            ++local.rederived;
            changed = true;
            it = pend.erase(it);
          } else {
            ++it;
          }
        }
      }
    }

    uint64_t total_del = 0;
    for (const auto& [pred, rel] : del) {
      (void)pred;
      total_del += rel.size();
    }
    local.delta_deletes += total_del - local.rederived;
  }

  // ---- Inserts: resume semi-naive with the inserted tuples as the delta
  // against the (post-delete) fixpoint. `pending` carries the not-yet-
  // propagated new tuples per predicate; each unit seeds from the pending
  // entries its bodies reference and contributes its newly derived tuples
  // back for the units downstream.
  DeltaMap pending;
  for (const auto& [pred, rel] : delta.inserts) {
    Relation& ext = extents->at(pred);
    Relation& pen = pending[pred];
    rel.ForEach([&](const TupleRef& t) {
      if (!ext.Contains(t)) pen.Insert(t);
    });
  }
  for (auto& [pred, rel] : pending) {
    if (rel.empty()) continue;
    extents->at(pred).InsertAll(rel);
    local.delta_inserts += rel.size();
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu);
    AccumulateCounters(s, local);
  }

  bool any_ins = false;
  for (const auto& [pred, rel] : pending) {
    (void)pred;
    if (!rel.empty()) any_ins = true;
  }
  if (any_ins) {
    for (int u : order) {
      const Unit& unit = units[u];
      DeltaMap seedmap;
      for (const Rule* rule : unit.rules) {
        for (const Literal& lit : rule->body) {
          if (lit.kind != Literal::Kind::kPositive) continue;
          if (seedmap.count(lit.atom.pred)) continue;
          const Relation* p = FindDelta(pending, lit.atom.pred);
          if (p == nullptr || p->empty()) continue;
          seedmap[lit.atom.pred] = *p;
        }
      }
      if (seedmap.empty()) continue;
      DeltaMap collected;
      EvalUnit(unit, /*indexed=*/true, options.max_iterations,
               options.plan_order_seed, rules_base, &state, cache, pool, s,
               &stats_mu, &seedmap, &collected);
      for (auto& [pred, rel] : collected) {
        if (rel.empty()) continue;
        s->delta_inserts += rel.size();
        pending[pred].InsertAll(rel);
      }
    }
  }
  return result;
}

namespace {

/// num_threads for the Strategy-only entry points: REL_EVAL_THREADS when
/// set (1..64; this is how CI runs the whole test suite under TSan with a
/// parallel evaluator), else 1.
int DefaultNumThreads() {
  static const int n = [] {
    const char* env = std::getenv("REL_EVAL_THREADS");
    if (env == nullptr) return 1;
    int v = std::atoi(env);
    return std::min(64, std::max(1, v));
  }();
  return n;
}

}  // namespace

std::map<std::string, Relation> Evaluate(const Program& program,
                                         Strategy strategy, EvalStats* stats) {
  EvalOptions options;
  options.strategy = strategy;
  options.num_threads = DefaultNumThreads();
  return Evaluate(program, options, stats);
}

Relation EvaluatePredicate(const Program& program, const std::string& pred,
                           const EvalOptions& options, EvalStats* stats) {
  std::map<std::string, Relation> all = Evaluate(program, options, stats);
  auto it = all.find(pred);
  return it == all.end() ? Relation() : std::move(it->second);
}

Relation EvaluatePredicate(const Program& program, const std::string& pred,
                           Strategy strategy, EvalStats* stats) {
  std::map<std::string, Relation> all = Evaluate(program, strategy, stats);
  auto it = all.find(pred);
  return it == all.end() ? Relation() : std::move(it->second);
}

}  // namespace datalog
}  // namespace rel
