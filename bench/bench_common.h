// Shared helpers for the benchmark binaries.

#ifndef REL_BENCH_BENCH_COMMON_H_
#define REL_BENCH_BENCH_COMMON_H_

#include <sys/resource.h>

#include <string>
#include <vector>

#include "core/engine.h"
#include "data/tuple.h"

namespace rel {
namespace bench {

/// Bulk-loads `relations` into `engine` as base relations. (The engine is
/// populated in place: since the serving redesign an Engine owns mutexes
/// and is neither copyable nor movable.)
inline void LoadEngine(
    Engine& engine,
    const std::vector<std::pair<std::string, const std::vector<Tuple>*>>&
        relations) {
  for (const auto& [name, tuples] : relations) {
    engine.Insert(name, *tuples);
  }
}

/// Minor page faults this process has taken so far (getrusage). A series
/// reports the delta over its timed work per iteration as "minflt": memory
/// the allocator handed back to the OS and the next iteration touches again
/// shows up there.
inline long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

}  // namespace bench
}  // namespace rel

#endif  // REL_BENCH_BENCH_COMMON_H_
