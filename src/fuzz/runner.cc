#include "fuzz/runner.h"

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>

#include "base/error.h"
#include "core/engine.h"
#include "core/session.h"
#include "datalog/eval.h"
#include "datalog/program.h"
#include "datalog/to_rel.h"

namespace rel {
namespace fuzz {

namespace {

using datalog::EvalOptions;
using datalog::EvalStats;
using datalog::Strategy;

/// Round cap for the Rel configurations, so a fixpoint that fails to
/// converge is reported as a kNonConvergent discrepancy instead of hanging
/// the sweep. Generated programs are stratified, so every recursive
/// component iterates in accumulate mode, where each round but the last
/// adds a tuple. At the default dials (three predicates of arity at most
/// three, constants from twelve values) that bounds a component by a few
/// thousand rounds, and it converges within a few dozen in practice.
constexpr int kRelMaxIterations = 10000;

/// One configuration's outcome: either an error (kind + message) or the
/// extents of the predicates under comparison, plus stats when the config
/// ran the classical engine directly.
struct Outcome {
  std::string label;
  bool errored = false;
  ErrorKind error_kind = ErrorKind::kInternal;
  std::string error_msg;
  std::map<std::string, Relation> extents;
  EvalStats stats;
  bool has_stats = false;
};

Outcome RunDatalog(const FuzzCase& c, const std::string& label,
                   const EvalOptions& eval_options) {
  Outcome out;
  out.label = label;
  try {
    out.extents = datalog::Evaluate(c.program, eval_options, &out.stats);
    out.has_stats = true;
  } catch (const RelError& e) {
    out.errored = true;
    out.error_kind = e.kind();
    out.error_msg = e.what();
  }
  return out;
}

/// Up-to-three-tuples summary of how two relations differ.
std::string DiffRelations(const Relation& got, const Relation& want) {
  std::ostringstream os;
  os << "got " << got.size() << " tuples, want " << want.size();
  int shown = 0;
  for (const Tuple& t : got.SortedTuples()) {
    if (!want.Contains(t) && shown < 3) {
      os << "; extra " << t.ToString();
      ++shown;
    }
  }
  for (const Tuple& t : want.SortedTuples()) {
    if (!got.Contains(t) && shown < 3) {
      os << "; missing " << t.ToString();
      ++shown;
    }
  }
  return os.str();
}

const Relation& ExtentOf(const std::map<std::string, Relation>& extents,
                         const std::string& pred) {
  static const Relation kEmpty;
  auto it = extents.find(pred);
  return it == extents.end() ? kEmpty : it->second;
}

class CaseRunner {
 public:
  CaseRunner(const FuzzCase& c, const RunnerOptions& opts)
      : c_(c), opts_(opts) {}

  RunResult Run() {
    // The oracle: the naive evaluator, sequential, no planner, no indexes,
    // no deltas — the least code any answer can depend on. Its safety order
    // makes it literal-order-independent, like every other configuration.
    EvalOptions oracle_opts;
    oracle_opts.strategy = Strategy::kNaive;
    Outcome oracle = RunDatalog(c_, "dl/naive", oracle_opts);
    ++result_.configs_run;

    if (oracle.errored) {
      RunErrorLattice(oracle);
      return std::move(result_);
    }
    RunLattice(oracle);
    if (opts_.run_rel_paths) RunRelPaths(oracle);
    if (opts_.check_stats && answers_clean_) CheckStats(oracle);
    return std::move(result_);
  }

 private:
  void Report(const std::string& config, const std::string& kind,
              const std::string& detail) {
    result_.discrepancies.push_back({config, kind, detail});
    if (kind != "stats") answers_clean_ = false;
  }

  void ExpectSameError(const Outcome& ref, const Outcome& got) {
    if (!got.errored) {
      Report(got.label, "error",
             "succeeded where " + ref.label + " threw " +
                 ErrorKindName(ref.error_kind) + " (" + ref.error_msg + ")");
    } else if (got.error_kind != ref.error_kind) {
      Report(got.label, "error",
             std::string("threw ") + ErrorKindName(got.error_kind) +
                 " where " + ref.label + " threw " +
                 ErrorKindName(ref.error_kind));
    }
  }

  void CompareAnswers(const Outcome& ref, const Outcome& got) {
    if (got.errored) {
      Report(got.label, "error",
             std::string("threw ") + ErrorKindName(got.error_kind) + " (" +
                 got.error_msg + ") where " + ref.label + " succeeded");
      return;
    }
    for (const std::string& pred : c_.idb_preds) {
      const Relation& want = ExtentOf(ref.extents, pred);
      const Relation& have = ExtentOf(got.extents, pred);
      if (have != want) {
        Report(got.label, "answer",
               pred + ": " + DiffRelations(have, want) + " (vs " +
                   ref.label + ")");
      }
    }
  }

  /// The full datalog lattice when the oracle succeeded.
  void RunLattice(const Outcome& ref) {
    // Planned: every (seed, threads) point.
    std::vector<uint64_t> seeds = {0};
    seeds.insert(seeds.end(), opts_.plan_seeds.begin(),
                 opts_.plan_seeds.end());
    for (uint64_t seed : seeds) {
      for (int threads : opts_.thread_counts) {
        EvalOptions o;
        o.strategy = Strategy::kSemiNaive;
        o.num_threads = threads;
        o.plan_order_seed = seed;
        std::string label = "dl/semi/s" + std::to_string(seed) + "/t" +
                            std::to_string(threads);
        Outcome out = RunDatalog(c_, label, o);
        ++result_.configs_run;
        CompareAnswers(ref, out);
        if (out.has_stats) semi_family_.push_back(out);
      }
    }
  }

  /// When the oracle errored, the planned strategy must throw the same
  /// ErrorKind at every thread count.
  void RunErrorLattice(const Outcome& ref) {
    for (int threads : opts_.thread_counts) {
      EvalOptions o;
      o.strategy = Strategy::kSemiNaive;
      o.num_threads = threads;
      Outcome out =
          RunDatalog(c_, "dl/semi/s0/t" + std::to_string(threads), o);
      ++result_.configs_run;
      ExpectSameError(ref, out);
    }
  }

  /// The Rel engine paths, all through the to_rel translation bridge.
  void RunRelPaths(const Outcome& ref) {
    std::string rel_src;
    try {
      rel_src = datalog::ProgramToRel(c_.program);
    } catch (const RelError& e) {
      Report("rel/to_rel", "error",
             std::string("translation failed: ") + e.what());
      return;
    }
    Engine engine;
    engine.options().max_iterations = kRelMaxIterations;
    try {
      engine.Define(rel_src);
    } catch (const RelError& e) {
      Report("rel/define", "error",
             std::string("Define failed: ") + e.what());
      return;
    }

    // `query_fn` answers one predicate's whole extent.
    auto query_all = [&](const std::string& label, auto&& query_fn) {
      Outcome out;
      out.label = label;
      try {
        for (const std::string& pred : c_.idb_preds) {
          out.extents[pred] = query_fn(pred);
        }
      } catch (const RelError& e) {
        out.errored = true;
        out.error_kind = e.kind();
        out.error_msg = e.what();
      }
      ++result_.configs_run;
      CompareAnswers(ref, out);
    };

    auto engine_query = [&](const std::string& pred) {
      Relation answer = engine.Query("def output : " + pred);
      result_.seeded_lookups += engine.last_lowering_stats().seeded_lookups;
      return answer;
    };
    engine.options().lower_recursion = false;
    query_all("rel/interp", engine_query);

    engine.options().lower_recursion = true;
    query_all("rel/lowered", engine_query);

    if (!opts_.plan_seeds.empty()) {
      engine.options().plan_order_seed = opts_.plan_seeds.front();
      query_all("rel/lowered/s" + std::to_string(opts_.plan_seeds.front()),
                engine_query);
      engine.options().plan_order_seed = 0;
    }

    {
      auto session = engine.OpenSession();
      query_all("rel/session", [&](const std::string& pred) {
        Relation answer = session->Query("def output : " + pred);
        result_.seeded_lookups += session->last_lowering_stats().seeded_lookups;
        return answer;
      });
    }

    RunRelAdhoc(rel_src, query_all);
    RunRelPoint(ref, engine);
  }

  /// `rel/adhoc`: the program as query-local rules of an ad-hoc query on a
  /// fresh engine, read by an explicit-parameter output,
  /// `def output(v0, ...) : p(v0, ...)`. That reader lowers, so a recursive
  /// or aggregate `p` evaluates in one Datalog program with it
  /// (Interp::TryFuseReader). The configurations above never get there: a
  /// point-free `def output : p` does not lower, and defined rules are
  /// persistent, read through the extent cache.
  template <typename QueryAll>
  void RunRelAdhoc(const std::string& rel_src, QueryAll& query_all) {
    std::map<std::string, size_t> arity;
    for (const datalog::Rule& rule : c_.program.rules()) {
      arity[rule.head.pred] = rule.head.terms.size() + (rule.agg ? 1 : 0);
    }
    Engine adhoc;
    adhoc.options().max_iterations = kRelMaxIterations;
    query_all("rel/adhoc", [&](const std::string& pred) {
      std::string vars;
      for (size_t i = 0; i < arity[pred]; ++i) {
        vars += (i ? ", v" : "v") + std::to_string(i);
      }
      Relation answer = adhoc.Query(rel_src + "\ndef output(" + vars +
                                    ") : " + pred + "(" + vars + ")");
      result_.fused_readers += adhoc.last_lowering_stats().fused_readers;
      return answer;
    });
  }

  /// A bound read through the solver: the goal as a point query with bound
  /// arguments on the default path. Expected answer: the goal-filtered
  /// reference extent projected onto the goal's free positions. An
  /// all-bound goal is a boolean read, `def output() : p(c1, ...)`: {()}
  /// when the tuple is in the reference extent, {} otherwise.
  void RunRelPoint(const Outcome& ref, Engine& engine) {
    if (!c_.goal) return;
    std::string head = "def output(";
    std::string body = c_.goal->pred + "(";
    int v = 0;
    for (size_t i = 0; i < c_.goal->pattern.size(); ++i) {
      if (i) body += ", ";
      const auto& pos = c_.goal->pattern[i];
      if (pos.has_value()) {
        body += pos->ToString();
      } else {
        std::string var = "qv" + std::to_string(v++);
        if (v > 1) head += ", ";
        head += var;
        body += var;
      }
    }
    std::string query = head + ") : " + body + ")";

    Relation want;
    Relation filtered = datalog::FilterByPattern(
        ExtentOf(ref.extents, c_.goal->pred), c_.goal->pattern);
    for (const Tuple& t : filtered.SortedTuples()) {
      Tuple proj;
      for (size_t i = 0; i < c_.goal->pattern.size(); ++i) {
        if (!c_.goal->pattern[i].has_value()) proj.Append(t[i]);
      }
      want.Insert(proj);
    }

    ++result_.configs_run;
    try {
      Relation have = engine.Query(query);
      result_.seeded_lookups += engine.last_lowering_stats().seeded_lookups;
      if (have != want) {
        Report("rel/point", "answer",
               c_.goal->pred + " via `" + query + "`: " +
                   DiffRelations(have, want));
      }
    } catch (const RelError& e) {
      Report("rel/point", "error",
             std::string("threw ") + ErrorKindName(e.kind()) + " (" +
                 e.what() + ") on `" + query + "`");
    }
  }

  /// Cross-config EvalStats invariants. Only meaningful when every config
  /// computed the same answers (answer bugs make cost numbers noise).
  void CheckStats(const Outcome& oracle) {
    if (semi_family_.empty()) return;

    // (1) Every planned configuration agrees on round structure and on the
    // number of satisfying body assignments.
    const Outcome& base = semi_family_.front();
    for (const Outcome& out : semi_family_) {
      if (!out.has_stats) continue;
      if (out.stats.iterations != base.stats.iterations) {
        Report(out.label, "stats",
               "iterations=" + std::to_string(out.stats.iterations) +
                   " differs from " + base.label + "=" +
                   std::to_string(base.stats.iterations));
      }
      if (out.stats.tuples_derived != base.stats.tuples_derived) {
        Report(out.label, "stats",
               "tuples_derived=" + std::to_string(out.stats.tuples_derived) +
                   " differs from " + base.label + "=" +
                   std::to_string(base.stats.tuples_derived));
      }
    }

    // (2) Across thread counts at a fixed plan seed, the documented
    // deterministic counters are exactly equal.
    CheckThreadInvariance(semi_family_);

    // (3) Semi-naive never derives dramatically more than naive. The honest
    // bound is per-program: a rule with k recursive (IDB) body atoms runs k
    // delta-variants per round, so an assignment that is all-new in one
    // round derives up to k times where naive derives it once — and when
    // the fixpoint converges in few rounds, naive's re-derivation
    // multiplier cannot absorb that. (Found by this fuzzer: seed 777315,
    // tests/fuzz/corpus/stats_multi_recursive.dl, ratio 1.51 with k=2.)
    if (oracle.has_stats) {
      int max_idb_atoms = 1;
      for (const datalog::Rule& rule : c_.program.rules()) {
        int idb_atoms = 0;
        for (const datalog::Literal& lit : rule.body) {
          if (lit.kind == datalog::Literal::Kind::kPositive &&
              std::binary_search(c_.idb_preds.begin(), c_.idb_preds.end(),
                                 lit.atom.pred)) {
            ++idb_atoms;
          }
        }
        max_idb_atoms = std::max(max_idb_atoms, idb_atoms);
      }
      double ratio =
          std::max(opts_.naive_ratio, static_cast<double>(max_idb_atoms));
      uint64_t bound = static_cast<uint64_t>(
          static_cast<double>(oracle.stats.tuples_derived) * ratio) +
          opts_.naive_slack;
      if (base.stats.tuples_derived > bound) {
        Report(base.label, "stats",
               "tuples_derived=" + std::to_string(base.stats.tuples_derived) +
                   " exceeds naive bound " + std::to_string(bound) + " (" +
                   oracle.label + " derived " +
                   std::to_string(oracle.stats.tuples_derived) + ")");
      }
    }
  }

  /// Groups the planned members of `family` by plan seed (the label up to
  /// its "/t<threads>" suffix) and requires the documented thread-invariant
  /// counters to agree exactly within each group.
  void CheckThreadInvariance(const std::vector<Outcome>& family) {
    std::map<std::string, const Outcome*> first_of_seed;
    for (const Outcome& out : family) {
      if (!out.has_stats) continue;
      std::string prefix = out.label.substr(0, out.label.rfind("/t"));
      auto [it, inserted] = first_of_seed.emplace(prefix, &out);
      if (inserted) continue;
      const Outcome& base = *it->second;
      auto check = [&](const char* name, uint64_t got, uint64_t want) {
        if (got != want) {
          Report(out.label, "stats",
                 std::string(name) + "=" + std::to_string(got) +
                     " differs across thread counts from " + base.label +
                     "=" + std::to_string(want));
        }
      };
      check("tuples_derived", out.stats.tuples_derived,
            base.stats.tuples_derived);
      check("index_builds", out.stats.index_builds, base.stats.index_builds);
      check("sorted_builds", out.stats.sorted_builds,
            base.stats.sorted_builds);
      check("index_probes", out.stats.index_probes, base.stats.index_probes);
      check("leapfrog_joins", out.stats.leapfrog_joins,
            base.stats.leapfrog_joins);
      check("ranges_solved", out.stats.ranges_solved,
            base.stats.ranges_solved);
      check("aggregate_updates", out.stats.aggregate_updates,
            base.stats.aggregate_updates);
      check("groups_improved", out.stats.groups_improved,
            base.stats.groups_improved);
      check("iterations", static_cast<uint64_t>(out.stats.iterations),
            static_cast<uint64_t>(base.stats.iterations));
    }
  }

  const FuzzCase& c_;
  const RunnerOptions& opts_;
  RunResult result_;
  bool answers_clean_ = true;
  std::vector<Outcome> semi_family_;  // full-fixpoint semi-naive configs
};

}  // namespace

RunResult RunCase(const FuzzCase& c, const RunnerOptions& options) {
  return CaseRunner(c, options).Run();
}

std::string FormatResult(const FuzzCase& c, const RunResult& result) {
  if (result.ok()) return "";
  std::ostringstream os;
  os << "=== fuzz case seed=" << c.seed << " (" << result.configs_run
     << " configs, " << result.discrepancies.size() << " discrepancies)\n";
  for (const Discrepancy& d : result.discrepancies) {
    os << "  [" << d.kind << "] " << d.config << ": " << d.detail << "\n";
  }
  os << CaseToText(c);
  return os.str();
}

}  // namespace fuzz
}  // namespace rel
