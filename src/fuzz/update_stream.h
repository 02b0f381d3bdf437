// Update-stream fuzzing for incremental maintenance (PR 9).
//
// A stream case is a generated base program (src/fuzz/generator.h) plus a
// seeded sequence of single-tuple EDB inserts and deletes. The runner
// executes the stream twice per configuration point of the lattice
// (plan-order seed x thread count):
//
//   * incrementally — one EvaluateDelta per step against the maintained
//     fixpoint, with a persistent IndexCache so the append fast path and
//     DRed both soak; an unsupported step (negation in the delta's cone)
//     falls back to a full recompute, exactly like the production caches;
//   * from scratch — a fresh Evaluate over the post-step EDB, the oracle.
//
// After every step, every predicate extent must agree byte-for-byte, and
// the semantic delta counters {delta_inserts, delta_deletes, rederived}
// must agree across all configurations — they count set changes, which no
// join order or thread count may alter. Any disagreement is a Discrepancy,
// shrunk by MinimizeStream (drop the goal, then steps, rules and facts —
// largest granularity first) and committed to tests/fuzz/corpus/ in the .dl
// format with `% fuzz-update:` directives, replayed by
// fuzz_regression_test.

#ifndef REL_FUZZ_UPDATE_STREAM_H_
#define REL_FUZZ_UPDATE_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/runner.h"

namespace rel {
namespace fuzz {

/// One EDB mutation. No-op steps (inserting a present tuple, deleting an
/// absent one) are legal in the encoding and skipped by the runner.
struct UpdateStep {
  bool is_insert = true;
  std::string pred;
  Tuple tuple;
};

struct UpdateStream {
  FuzzCase base;
  std::vector<UpdateStep> steps;
};

struct StreamOptions {
  int num_steps = 12;
  /// Probability that a step deletes an existing tuple (when any exists).
  double delete_probability = 0.4;
  GeneratorOptions generator;
};

/// Generates the stream for `seed`. Pure function of (seed, options); the
/// base case is GenerateCase(seed) under options.generator.
UpdateStream GenerateUpdateStream(uint64_t seed,
                                  const StreamOptions& options = {});

/// Runs the stream differentially across the lattice (see header comment).
/// `incremental_steps`/`fallback_steps` out-params (optional) report how
/// many per-arm steps took the EvaluateDelta path vs the full-recompute
/// fallback, for coverage accounting.
RunResult RunUpdateStream(const UpdateStream& stream,
                          const RunnerOptions& options = {},
                          uint64_t* incremental_steps = nullptr,
                          uint64_t* fallback_steps = nullptr);

/// Drops the goal, then greedy delta-debugging over steps, rules and facts;
/// returns `stream` unchanged if it does not currently fail.
UpdateStream MinimizeStream(const UpdateStream& stream,
                            const RunnerOptions& options = {});

/// Corpus format: CaseToText(base) plus one `% fuzz-update:` directive per
/// step. StreamFromText inverts it; a stream file also loads as a plain
/// FuzzCase (CaseFromText ignores unknown directives), so committed stream
/// reproducers double as static corpus entries.
std::string StreamToText(const UpdateStream& stream);
UpdateStream StreamFromText(const std::string& text);

/// Human-readable report for a failing stream (header + discrepancies).
std::string FormatStreamResult(const UpdateStream& stream,
                               const RunResult& result);

}  // namespace fuzz
}  // namespace rel

#endif  // REL_FUZZ_UPDATE_STREAM_H_
