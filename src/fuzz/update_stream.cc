#include "fuzz/update_stream.h"

#include <algorithm>
#include <cstddef>
#include <exception>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "base/error.h"
#include "base/rng.h"
#include "datalog/eval.h"
#include "datalog/index.h"

namespace rel {
namespace fuzz {

namespace {

using datalog::EdbDelta;
using datalog::EvalOptions;
using datalog::EvalStats;
using datalog::Rule;

std::string RenderValueToken(const Value& v) {
  if (v.is_string()) return "\"" + v.AsString() + "\"";
  return v.ToString();
}

/// A program with `rules` and the given EDB state (facts() of the base
/// program replaced wholesale).
datalog::Program ProgramWith(const datalog::Program& base,
                             const std::map<std::string, Relation>& facts) {
  datalog::Program p;
  for (const Rule& rule : base.rules()) p.AddRule(rule);
  for (const auto& [pred, rel] : facts) {
    if (!rel.empty()) p.AddFacts(pred, rel);
  }
  return p;
}

/// Head predicates that also carry EDB facts: EvaluateDelta's DRed phase
/// needs their surviving base tuples via base_facts.
std::map<std::string, Relation> HeadBaseFacts(
    const datalog::Program& base, const std::map<std::string, Relation>& facts) {
  std::map<std::string, Relation> out;
  for (const Rule& rule : base.rules()) {
    auto it = facts.find(rule.head.pred);
    if (it != facts.end() && !it->second.empty()) out[rule.head.pred] = it->second;
  }
  return out;
}

std::string DescribeStep(size_t index, const UpdateStep& step) {
  std::ostringstream os;
  os << "step " << index << " " << (step.is_insert ? "insert " : "delete ")
     << step.pred << "(";
  for (size_t i = 0; i < step.tuple.arity(); ++i) {
    if (i) os << ", ";
    os << RenderValueToken(step.tuple[i]);
  }
  os << ")";
  return os.str();
}

}  // namespace

UpdateStream GenerateUpdateStream(uint64_t seed, const StreamOptions& options) {
  UpdateStream stream;
  stream.base = GenerateCase(seed, options.generator);

  // The EDB predicates mutated by the stream: every declared EDB predicate,
  // including those whose initial extent came out empty (insert-into-empty
  // is a deliberate edge case). Names and arities follow the generator's
  // e0..e{n-1} convention; arity is recovered from facts or rule bodies.
  std::map<std::string, size_t> edb_arity;
  for (const auto& [pred, rel] : stream.base.program.facts()) {
    rel.ForEach([&edb_arity, pred = pred](const TupleRef& t) {
      edb_arity.emplace(pred, t.arity());
    });
  }
  for (const Rule& rule : stream.base.program.rules()) {
    for (const auto& lit : rule.body) {
      if (lit.kind != datalog::Literal::Kind::kPositive &&
          lit.kind != datalog::Literal::Kind::kNegative) {
        continue;
      }
      const std::string& pred = lit.atom.pred;
      bool is_idb = std::binary_search(stream.base.idb_preds.begin(),
                                       stream.base.idb_preds.end(), pred);
      if (!is_idb) edb_arity.emplace(pred, lit.atom.terms.size());
    }
  }
  if (edb_arity.empty()) return stream;

  std::vector<std::pair<std::string, size_t>> edb(edb_arity.begin(),
                                                  edb_arity.end());
  // Track the evolving extents so deletes target present tuples and
  // inserts prefer absent ones (no-op steps are legal but wasted).
  std::map<std::string, Relation> live = stream.base.program.facts();

  Rng rng(seed ^ 0xA5A5A5A5DEADBEEFull);
  const int domain = options.generator.value_domain;
  for (int i = 0; i < options.num_steps; ++i) {
    UpdateStep step;
    const auto& [pred, arity] = edb[rng.NextBelow(edb.size())];
    step.pred = pred;
    Relation& extent = live[pred];
    if (!extent.empty() && rng.NextBool(options.delete_probability)) {
      step.is_insert = false;
      std::vector<Tuple> tuples = extent.SortedTuples();
      step.tuple = tuples[rng.NextBelow(tuples.size())];
      extent.Erase(step.tuple);
    } else {
      step.is_insert = true;
      std::vector<Value> values;
      for (size_t p = 0; p < arity; ++p) {
        values.push_back(Value::Int(
            static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(domain)))));
      }
      step.tuple = Tuple(std::move(values));
      extent.Insert(step.tuple);
    }
    stream.steps.push_back(std::move(step));
  }
  return stream;
}

RunResult RunUpdateStream(const UpdateStream& stream,
                          const RunnerOptions& options,
                          uint64_t* incremental_steps,
                          uint64_t* fallback_steps) {
  RunResult result;
  uint64_t incremental = 0;
  uint64_t fallback = 0;

  // One maintained arm per lattice point (plan seed x thread count), each
  // with its own persistent index cache.
  struct Arm {
    std::string label;
    EvalOptions opts;
    std::map<std::string, Relation> extents;
    std::unique_ptr<datalog::IndexCache> cache =
        std::make_unique<datalog::IndexCache>();
  };
  std::vector<Arm> arms;
  std::vector<uint64_t> seeds = {0};
  seeds.insert(seeds.end(), options.plan_seeds.begin(),
               options.plan_seeds.end());
  for (int threads : options.thread_counts) {
    for (uint64_t seed : seeds) {
      Arm arm;
      arm.opts.num_threads = threads;
      arm.opts.plan_order_seed = seed;
      arm.label = "inc/s" + std::to_string(seed) + "/t" +
                  std::to_string(threads);
      arms.push_back(std::move(arm));
    }
  }

  EvalOptions oracle_opts;  // semi-naive, one thread, production join order

  std::map<std::string, Relation> facts = stream.base.program.facts();
  try {
    datalog::Program initial = ProgramWith(stream.base.program, facts);
    for (Arm& arm : arms) {
      arm.extents = datalog::Evaluate(initial, arm.opts);
    }
  } catch (const RelError&) {
    // The static fuzzer owns error-semantics comparison; a base case the
    // engine rejects has no maintained fixpoint to stream against.
    return result;
  }

  datalog::Program rules_only = ProgramWith(stream.base.program, {});

  for (size_t index = 0; index < stream.steps.size(); ++index) {
    const UpdateStep& step = stream.steps[index];
    Relation& extent = facts[step.pred];
    EdbDelta delta;
    if (step.is_insert) {
      if (extent.Contains(step.tuple)) continue;  // no-op step
      delta.inserts[step.pred].Insert(step.tuple);
      extent.Insert(step.tuple);
    } else {
      if (!extent.Contains(step.tuple)) continue;  // no-op step
      delta.deletes[step.pred].Insert(step.tuple);
      extent.Erase(step.tuple);
    }

    datalog::Program post = ProgramWith(stream.base.program, facts);
    std::map<std::string, Relation> oracle =
        datalog::Evaluate(post, oracle_opts);
    std::map<std::string, Relation> base_facts =
        HeadBaseFacts(stream.base.program, facts);

    bool have_counters = false;
    uint64_t want_inserts = 0, want_deletes = 0, want_rederived = 0;
    for (Arm& arm : arms) {
      ++result.configs_run;
      EvalStats stats;
      bool supported = false;
      try {
        datalog::DeltaResult dr =
            datalog::EvaluateDelta(rules_only, base_facts, delta, &arm.extents,
                                   arm.opts, &stats, arm.cache.get());
        supported = dr.supported;
      } catch (const std::exception& e) {
        result.discrepancies.push_back(
            {arm.label, "error",
             DescribeStep(index, step) + ": EvaluateDelta threw: " + e.what()});
        supported = false;
      }
      if (supported) {
        ++incremental;
        if (options.check_stats) {
          // The delta counters are semantic set sizes — identical across
          // every join order and thread count.
          if (!have_counters) {
            have_counters = true;
            want_inserts = stats.delta_inserts;
            want_deletes = stats.delta_deletes;
            want_rederived = stats.rederived;
          } else if (stats.delta_inserts != want_inserts ||
                     stats.delta_deletes != want_deletes ||
                     stats.rederived != want_rederived) {
            std::ostringstream os;
            os << DescribeStep(index, step) << ": delta counters diverge: ("
               << stats.delta_inserts << ", " << stats.delta_deletes << ", "
               << stats.rederived << ") vs (" << want_inserts << ", "
               << want_deletes << ", " << want_rederived << ")";
            result.discrepancies.push_back({arm.label, "stats", os.str()});
          }
        }
      } else {
        // Production fallback: recompute from scratch, fresh cache (the old
        // one indexes replaced extents).
        ++fallback;
        arm.extents = datalog::Evaluate(post, arm.opts);
        arm.cache = std::make_unique<datalog::IndexCache>();
      }

      // Every extent the oracle derived must match byte-for-byte.
      for (const auto& [pred, want] : oracle) {
        auto it = arm.extents.find(pred);
        const std::string got =
            it == arm.extents.end() ? "{}" : it->second.ToString();
        if (got != want.ToString()) {
          result.discrepancies.push_back(
              {arm.label, "answer",
               DescribeStep(index, step) + ": " + pred + " = " + got +
                   " want " + want.ToString()});
        }
      }
      // And nothing extra.
      for (const auto& [pred, got] : arm.extents) {
        if (!got.empty() && oracle.find(pred) == oracle.end()) {
          result.discrepancies.push_back(
              {arm.label, "answer",
               DescribeStep(index, step) + ": unexpected extent for " + pred});
        }
      }
    }
  }

  if (incremental_steps != nullptr) *incremental_steps += incremental;
  if (fallback_steps != nullptr) *fallback_steps += fallback;
  return result;
}

UpdateStream MinimizeStream(const UpdateStream& stream,
                            const RunnerOptions& options) {
  auto fails = [&options](const UpdateStream& s) {
    return !RunUpdateStream(s, options).ok();
  };
  if (!fails(stream)) return stream;

  UpdateStream cur = stream;
  cur.base.goal.reset();  // no stream check reads the goal
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;

    // Drop steps, one at a time (later steps first: a failing prefix is
    // the common case, so trimming the tail converges fastest).
    for (size_t i = cur.steps.size(); i-- > 0;) {
      UpdateStream cand = cur;
      cand.steps.erase(cand.steps.begin() + static_cast<ptrdiff_t>(i));
      if (fails(cand)) {
        cur = std::move(cand);
        shrunk = true;
      }
    }

    // Drop rules.
    const std::vector<Rule>& rules = cur.base.program.rules();
    for (size_t i = rules.size(); i-- > 0;) {
      datalog::Program p;
      for (size_t j = 0; j < cur.base.program.rules().size(); ++j) {
        if (j != i) p.AddRule(cur.base.program.rules()[j]);
      }
      for (const auto& [pred, rel] : cur.base.program.facts()) {
        p.AddFacts(pred, rel);
      }
      UpdateStream cand = cur;
      cand.base.program = std::move(p);
      if (fails(cand)) {
        cur = std::move(cand);
        shrunk = true;
      }
    }

    // Drop initial facts.
    std::vector<std::pair<std::string, Tuple>> all_facts;
    for (const auto& [pred, rel] : cur.base.program.facts()) {
      for (const Tuple& t : rel.SortedTuples()) all_facts.emplace_back(pred, t);
    }
    for (size_t i = all_facts.size(); i-- > 0;) {
      datalog::Program p;
      for (const Rule& rule : cur.base.program.rules()) p.AddRule(rule);
      for (size_t j = 0; j < all_facts.size(); ++j) {
        if (j != i) p.AddFact(all_facts[j].first, all_facts[j].second);
      }
      UpdateStream cand = cur;
      cand.base.program = std::move(p);
      if (fails(cand)) {
        cur = std::move(cand);
        all_facts.erase(all_facts.begin() + static_cast<ptrdiff_t>(i));
        shrunk = true;
      }
    }
  }
  return cur;
}

std::string StreamToText(const UpdateStream& stream) {
  std::ostringstream os;
  os << CaseToText(stream.base);
  for (const UpdateStep& step : stream.steps) {
    os << "% fuzz-update: " << (step.is_insert ? "insert" : "delete") << " "
       << step.pred;
    for (size_t i = 0; i < step.tuple.arity(); ++i) {
      os << " " << RenderValueToken(step.tuple[i]);
    }
    os << "\n";
  }
  return os.str();
}

UpdateStream StreamFromText(const std::string& text) {
  UpdateStream stream;
  stream.base = CaseFromText(text);
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag != "%") continue;
    ls >> tag;
    if (tag != "fuzz-update:") continue;
    UpdateStep step;
    std::string op;
    if (!(ls >> op >> step.pred) || (op != "insert" && op != "delete")) {
      throw RelError(ErrorKind::kParse, "bad fuzz-update directive: " + line);
    }
    step.is_insert = op == "insert";
    std::vector<Value> values;
    std::string tok;
    while (ls >> tok) {
      if (tok.size() >= 2 && tok.front() == '"' && tok.back() == '"') {
        values.push_back(Value::String(tok.substr(1, tok.size() - 2)));
      } else {
        try {
          values.push_back(Value::Int(std::stoll(tok)));
        } catch (const std::exception&) {
          throw RelError(ErrorKind::kParse,
                         "bad fuzz-update value token: " + tok);
        }
      }
    }
    step.tuple = Tuple(std::move(values));
    stream.steps.push_back(std::move(step));
  }
  return stream;
}

std::string FormatStreamResult(const UpdateStream& stream,
                               const RunResult& result) {
  if (result.ok()) return "";
  std::ostringstream os;
  os << "=== update stream seed=" << stream.base.seed << " ("
     << stream.steps.size() << " steps, " << result.discrepancies.size()
     << " discrepancies)\n";
  os << StreamToText(stream);
  for (const Discrepancy& d : result.discrepancies) {
    os << "  [" << d.kind << "] " << d.config << ": " << d.detail << "\n";
  }
  return os.str();
}

}  // namespace fuzz
}  // namespace rel
