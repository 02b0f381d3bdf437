// The four relbench workloads. Each runs in its own process, generates its
// inputs from --seed, sets the system up kSetups times (the median is
// setup_s), then drives it in a closed loop for --seconds of timed work,
// checking every answer against an oracle outside the timed interval.
// The system is reached only through its public API: Engine, Session and a
// loopback server::LineServer.

#ifndef RELBENCH_WORKLOADS_H_
#define RELBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common.h"

namespace relbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Where stores, results and traces go, relative to the working directory.
  std::string out_dir = "relbench-out";
};

/// Ad-hoc recursive queries, one session, no commits.
void RunAnalytics(const Options& opt, RunContext* ctx);
/// The Figure-1 order/payment application on a durable store.
void RunOrders(const Options& opt, RunContext* ctx);
/// Read-only point queries on a maintained closure, over TCP.
void RunReachServe(const Options& opt, RunContext* ctx);
/// Edge toggles on a durable store, each followed by a fresh read.
void RunReachUpdate(const Options& opt, RunContext* ctx);

/// How many times each workload sets up; setup_s is the median.
constexpr int kSetups = 5;

/// Sets up kSetups times, each after a few machine-speed samples, records
/// each as a "setup" latency and returns the last state; earlier ones are
/// destroyed before the next begins.
template <typename State, typename SetupFn>
std::unique_ptr<State> SetupRepeatedly(RunContext* ctx, SetupFn&& setup) {
  std::unique_ptr<State> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    for (int j = 0; j < 5; ++j) ctx->Calibrate();
    Clock::time_point t0 = Clock::now();
    state = setup();
    ctx->AddLatency("setup", "", MsBetween(t0, Clock::now()));
  }
  return state;
}

/// Timed work between two machine-speed samples (RunContext::Calibrate).
constexpr double kCalibrateEveryMs = 100;

/// One closed-loop client: calls step() until `seconds` of timed work have
/// passed. step() returns the milliseconds it spent outside the op's timed
/// interval (answer checks, replays), which do not count. Every
/// kCalibrateEveryMs of timed work it takes a machine-speed sample, which
/// does not count either. Returns the timed seconds.
template <typename Step>
double ClosedLoop(RunContext* ctx, double seconds, Step&& step) {
  Clock::time_point start = Clock::now();
  double excluded_ms = 0;
  double next_sample_ms = 0;
  for (;;) {
    double timed_ms = MsBetween(start, Clock::now()) - excluded_ms;
    if (timed_ms >= seconds * 1e3) return timed_ms / 1e3;
    if (timed_ms >= next_sample_ms) {
      excluded_ms += ctx->Calibrate();
      next_sample_ms = timed_ms + kCalibrateEveryMs;
    }
    excluded_ms += step();
  }
}

}  // namespace relbench

#endif  // RELBENCH_WORKLOADS_H_
