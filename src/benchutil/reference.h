// Hand-written reference implementations ("what an application programmer
// would write in the host language"): the comparison points for the
// benchmarks and the oracles for property tests.

#ifndef REL_BENCHUTIL_REFERENCE_H_
#define REL_BENCHUTIL_REFERENCE_H_

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "data/tuple.h"

namespace rel {
namespace benchutil {

/// Transitive closure by BFS from every node. Edges are int pairs.
std::set<std::pair<int64_t, int64_t>> TransitiveClosureRef(
    const std::vector<Tuple>& edges);

/// All-pairs shortest path lengths by BFS (unit weights); absent = no path.
std::map<std::pair<int64_t, int64_t>, int64_t> ApspRef(
    int n, const std::vector<Tuple>& edges);

/// Dense matrix multiply over sparse triple inputs (1-based indexes).
/// Returns the product as sorted triples, zero entries omitted.
std::vector<Tuple> MatMulRef(const std::vector<Tuple>& a,
                             const std::vector<Tuple>& b);

/// PageRank by direct iteration: p <- G * p until max-norm delta <= eps.
/// G is a column-stochastic sparse matrix (1-based triples); returns the
/// vector indexed 1..n. `iterations` reports the count.
std::vector<double> PageRankRef(int n, const std::vector<Tuple>& g, double eps,
                                int* iterations = nullptr);

/// Level-indexed power iteration: every node starts at rank 1.0 and each of
/// `levels` steps sets p'[i] = sum of v * p[j] over the entries (i, j, v) —
/// the recursive-sum `pr(v, t, r)` program at t = levels, except that a
/// node with no in-entry ranks 0 here and has no row in the Rel answer.
std::vector<double> PageRankLevelsRef(int n, const std::vector<Tuple>& g,
                                      int levels);

/// Group-by sum of the last column keyed on the first column.
std::map<Value, int64_t> GroupSumRef(const std::vector<Tuple>& rows);

/// Brute-force ordered triangle count: E(x,y), E(y,z), E(z,x).
size_t CountTrianglesRef(const std::vector<Tuple>& edges);

}  // namespace benchutil
}  // namespace rel

#endif  // REL_BENCHUTIL_REFERENCE_H_
