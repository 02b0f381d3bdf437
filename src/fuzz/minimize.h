// Reproducer minimization for the equivalent-query fuzzer: greedy
// delta-debugging that shrinks a failing case while it still fails.
//
// The shrink moves, tried to a fixpoint (largest-granularity first):
//
//   1. drop the point-query goal;
//   2. remove whole rules, one at a time;
//   3. remove body literals, one at a time (the head and remaining body
//      may become unsafe — such candidates fail differently or error
//      everywhere, and are rejected by the still-fails check);
//   4. remove EDB facts, one at a time.
//
// A candidate is kept only when RunCase still reports at least one
// discrepancy. Candidates on which every configuration consistently errors
// produce no discrepancy, so minimization never "simplifies" a genuine
// divergence into a uniformly-broken program. Fact counts are small
// (GeneratorOptions::edb_rows) so the one-at-a-time loop is fast; a
// ddmin-style chunk schedule would only matter for corpora this fuzzer
// does not produce.

#ifndef REL_FUZZ_MINIMIZE_H_
#define REL_FUZZ_MINIMIZE_H_

#include "fuzz/generator.h"
#include "fuzz/runner.h"

namespace rel {
namespace fuzz {

/// Shrinks `c` — which must currently fail under `options` — to a local
/// minimum that still fails. Returns the shrunk case; if `c` does not
/// actually fail, returns it unchanged.
FuzzCase Minimize(const FuzzCase& c, const RunnerOptions& options = {});

}  // namespace fuzz
}  // namespace rel

#endif  // REL_FUZZ_MINIMIZE_H_
