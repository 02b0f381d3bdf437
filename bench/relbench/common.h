// Shared plumbing of relbench: the benchmark's own seeded random numbers,
// the reference kernel that measures the machine's speed, latency samples,
// the span recorder behind --trace, and the per-op layer records the traced
// run aggregates into its per-layer table.
//
// Nothing here calls into the system under test; workloads (workloads.h)
// drive it through its public API and report into a RunContext.

#ifndef RELBENCH_COMMON_H_
#define RELBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace relbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// xoshiro256** seeded through splitmix64. The benchmark owns its generator
/// so that no change to the library can shift the generated inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n);
  /// Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi);
  /// Uniform in [0, 1).
  double Unit();

 private:
  uint64_t s_[4];
};

/// Zipf(s) over ranks 0..n-1: P(rank r) proportional to 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Draws op templates in shuffled blocks that hold template t exactly
/// weights[t] times, so every run's mix matches the weights to within one
/// block and mixed-class percentiles do not move with the draw.
class Mix {
 public:
  explicit Mix(const std::vector<int>& weights);
  int Next(Rng& rng);

 private:
  std::vector<int> block_;
  size_t pos_;
};

/// Times one pass of a fixed piece of the benchmark's own work (hashing,
/// allocation and sorting over an input that no seed changes) and returns
/// its wall time in ms. It shares no code with the system under test, so
/// its time tracks only the machine's speed.
double ReferenceKernelMs();

/// One ReferenceKernelMs() time and when it was taken.
struct ReferenceSample {
  double ms;
  Clock::time_point at;
};

/// The ReferenceKernelMs() time that defines the reference machine speed:
/// about its median on a shared 4-vCPU Xeon VM (gcc 12, Release).
constexpr double kReferenceMs = 1.4;

/// The machine-speed factor at `at`: kReferenceMs over the median of the
/// four reference samples nearest to it in time (`reference` is sorted by
/// time). A latency times this factor is what it would have measured on a
/// machine where the reference kernel takes kReferenceMs; 1 without samples.
/// On a shared 4-vCPU cloud VM a fixed kernel ran up to 40% slower for
/// seconds at a time; scaling each op by the speed around it removes most
/// of that from the run-to-run spread.
double SpeedFactor(const std::vector<ReferenceSample>& reference,
                   Clock::time_point at);

/// Linear-interpolated percentile (p in [0, 1]) of `v`; 0 when empty.
double Percentile(std::vector<double> v, double p);

/// Removes `dir` and everything below it, then creates it empty.
void ResetDir(const std::string& dir);
/// Filesystem type of `path` ("ext4", "tmpfs", ... or the hex magic).
std::string FilesystemType(const std::string& path);

/// JSON string literal for `s` (quotes included).
std::string JsonString(const std::string& s);
/// A number with all its digits (JSON has no NaN/inf; those print as 0).
std::string JsonNumber(double v);

/// Spans for the Chrome trace-event file of a traced run. Kept in memory
/// and written once at exit. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Records one finished span; returns its id (0 when disabled). `parent`
  /// is the id of the span that caused it (0 for none), `op` the op it
  /// belongs to (0 for set-up).
  uint64_t Add(const std::string& name, const std::string& cat, uint64_t op,
               const std::string& tmpl, uint64_t parent, Clock::time_point start,
               Clock::time_point end);

  /// Writes {"traceEvents": [...]} to `path`; false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    uint64_t id, op, parent;
    std::string name, cat, tmpl;
    double ts_us, dur_us;
    int tid;
  };
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, int> tids_;
};

/// Where an op's child spans go: the op, its template and its own span id.
struct SpanScope {
  Tracer* tracer = nullptr;
  uint64_t op = 0;
  std::string tmpl;
  uint64_t parent = 0;

  void Add(const std::string& name, Clock::time_point start,
           Clock::time_point end) const {
    if (tracer != nullptr) tracer->Add(name, "replay", op, tmpl, parent, start, end);
  }
};

/// What one timed op measured, per layer. Timings (ms) appear only where the
/// layer was measured for this op; counts are per op.
struct OpRecord {
  std::string tmpl;
  double op_ms = 0;
  std::map<std::string, double> ms;
  std::map<std::string, double> counts;
};

/// One measured latency. `cls` names "read", "write", "fresh" or "setup";
/// `tmpl` names the op's template, or "" for a set-up and for a part of an
/// op (the write and the read inside one reach_update cycle). Both index
/// RunContext::names, which keeps the sample small: a run holds one per op,
/// and that bookkeeping should not move peak_rss_mb.
struct LatencySample {
  uint16_t cls, tmpl;
  double ms;
  Clock::time_point at;  // when it ended
};

/// Everything a workload reports.
struct RunContext {
  bool trace = false;
  Tracer* tracer = nullptr;

  /// Reserved up front (untouched pages cost no RSS), so growing it never
  /// copies.
  std::vector<LatencySample> latencies;
  std::vector<std::string> names;  // of LatencySample::cls and ::tmpl
  /// ReferenceKernelMs() samples taken through set-up and the timed phase.
  std::vector<ReferenceSample> reference;
  /// Per-call set-up spans (core.engine.ctor_ms, ...), one sample per call.
  std::map<std::string, std::vector<double>> setup_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few mismatch descriptions
  /// Wall time of the timed phase minus answer checks and replays.
  double timed_s = 0;
  std::map<std::string, uint64_t> ops_by_template;
  std::vector<OpRecord> ops;  // traced runs only
  /// getrusage max RSS when the workload returned, in MB.
  double peak_rss_mb = 0;
  /// Filesystem type of the store directory ("" when the workload has none).
  std::string store_fs;

  std::mutex mu;  // guards everything above when several clients report

  /// Counts one attempted op of template `tmpl`; returns its op id.
  uint64_t BeginOp(const std::string& tmpl);
  /// Records a wrong answer (counted in `failed`, printed at the end).
  void Fail(const std::string& what);
  /// Records a latency that just ended (see LatencySample).
  void AddLatency(const std::string& cls, const std::string& tmpl, double ms);
  void AddOp(OpRecord op);
  /// Takes one ReferenceKernelMs() sample; returns the ms it took.
  double Calibrate();
  /// Times one set-up call and records it under `name`.
  template <typename Fn>
  void SetupCall(const std::string& name, Fn&& fn) {
    Clock::time_point t0 = Clock::now();
    fn();
    Clock::time_point t1 = Clock::now();
    std::lock_guard<std::mutex> lock(mu);
    setup_ms[name].push_back(MsBetween(t0, t1));
    if (tracer != nullptr) tracer->Add(name, "setup", 0, "", 0, t0, t1);
  }
};

}  // namespace relbench

#endif  // RELBENCH_COMMON_H_
