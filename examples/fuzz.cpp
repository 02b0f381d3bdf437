// Equivalent-query fuzzer CLI (src/fuzz): generate random Datalog programs,
// run each under the full configuration lattice — every strategy, thread
// count and plan-order seed of the classical engine, plus
// the Rel engine via the to_rel bridge (interpretation, lowering, a Session
// and a bound point query of the goal) — and report any configuration that
// disagrees with the naive oracle on answers, error kinds, or the cost
// invariants between equal-work configurations.
//
// Build & run:  ./build/examples/fuzz --seed 42 --iters 200
//
//   --seed N     base seed; iteration i runs case seed N+i  (default 42)
//   --iters K    number of cases                            (default 100)
//   --out DIR    write minimized reproducers as DIR/seed_<N>.dl
//                (without --out, reproducers print to stdout only)
//   --updates S  update-stream mode: each case is a base program plus S
//                random single-tuple EDB inserts/deletes, run
//                incrementally (EvaluateDelta + persistent index cache)
//                against a from-scratch oracle after every step, across
//                the (plan seed x thread count) lattice — the
//                incremental-maintenance differential (0 = classic
//                static mode)
//
// Exit status: 0 when every case is clean, 1 when any case produced a
// discrepancy (after printing its minimized reproducer).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "fuzz/generator.h"
#include "fuzz/minimize.h"
#include "fuzz/runner.h"
#include "fuzz/update_stream.h"

int main(int argc, char** argv) {
  uint64_t seed = 42;
  int iters = 100;
  int updates = 0;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--updates") == 0 && i + 1 < argc) {
      updates = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: fuzz [--seed N] [--iters K] [--updates S] "
                   "[--out DIR]\n");
      return 2;
    }
  }

  rel::fuzz::RunnerOptions runner_options;

  if (updates > 0) {
    rel::fuzz::StreamOptions stream_options;
    stream_options.num_steps = updates;
    int failures = 0;
    long long configs = 0;
    uint64_t incremental = 0, fallback = 0;
    for (int i = 0; i < iters; ++i) {
      uint64_t case_seed = seed + static_cast<uint64_t>(i);
      rel::fuzz::UpdateStream stream =
          rel::fuzz::GenerateUpdateStream(case_seed, stream_options);
      rel::fuzz::RunResult result = rel::fuzz::RunUpdateStream(
          stream, runner_options, &incremental, &fallback);
      configs += result.configs_run;
      if (result.ok()) {
        if ((i + 1) % 100 == 0) {
          std::printf("[%d/%d] clean (%lld step-configs, %llu incremental, "
                      "%llu fallback)\n",
                      i + 1, iters, configs,
                      static_cast<unsigned long long>(incremental),
                      static_cast<unsigned long long>(fallback));
        }
        continue;
      }
      ++failures;
      std::printf("%s", rel::fuzz::FormatStreamResult(stream, result).c_str());
      std::printf("--- minimizing stream seed=%llu ...\n",
                  static_cast<unsigned long long>(case_seed));
      rel::fuzz::UpdateStream small =
          rel::fuzz::MinimizeStream(stream, runner_options);
      rel::fuzz::RunResult small_result =
          rel::fuzz::RunUpdateStream(small, runner_options);
      std::printf("%s",
                  rel::fuzz::FormatStreamResult(small, small_result).c_str());
      if (!out_dir.empty()) {
        std::string path = out_dir + "/stream_seed_" +
                           std::to_string(case_seed) + ".dl";
        std::ofstream f(path);
        f << rel::fuzz::StreamToText(small);
        std::printf("--- reproducer written to %s\n", path.c_str());
      }
    }
    std::printf("fuzz --updates: %d/%d streams clean, %lld step-configs "
                "(%llu incremental, %llu fallback)\n",
                iters - failures, iters, configs,
                static_cast<unsigned long long>(incremental),
                static_cast<unsigned long long>(fallback));
    return failures == 0 ? 0 : 1;
  }
  int failures = 0;
  int seeded_cases = 0;
  long long configs = 0;
  for (int i = 0; i < iters; ++i) {
    uint64_t case_seed = seed + static_cast<uint64_t>(i);
    rel::fuzz::FuzzCase c = rel::fuzz::GenerateCase(case_seed);
    rel::fuzz::RunResult result = rel::fuzz::RunCase(c, runner_options);
    configs += result.configs_run;
    if (result.seeded_lookups > 0) ++seeded_cases;
    if (result.ok()) {
      if ((i + 1) % 100 == 0) {
        std::printf("[%d/%d] clean (%lld configs so far)\n", i + 1, iters,
                    configs);
      }
      continue;
    }
    ++failures;
    std::printf("%s", rel::fuzz::FormatResult(c, result).c_str());
    std::printf("--- minimizing seed=%llu ...\n",
                static_cast<unsigned long long>(case_seed));
    rel::fuzz::FuzzCase small = rel::fuzz::Minimize(c, runner_options);
    rel::fuzz::RunResult small_result =
        rel::fuzz::RunCase(small, runner_options);
    std::printf("%s", rel::fuzz::FormatResult(small, small_result).c_str());
    if (!out_dir.empty()) {
      std::string path = out_dir + "/seed_" + std::to_string(case_seed) +
                         ".dl";
      std::ofstream f(path);
      f << rel::fuzz::CaseToText(small);
      std::printf("--- reproducer written to %s\n", path.c_str());
    }
  }
  std::printf("fuzz: %d/%d cases clean, %lld configuration runs, %d cases "
              "read a seeded slice\n",
              iters - failures, iters, configs, seeded_cases);
  return failures == 0 ? 0 : 1;
}
