// relbench: the application-traffic benchmark of record (see README.md).
//
//   relbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload in this process. The last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}: with
// --trace 0 the metrics are the end-to-end set of BENCHMARK.json, measured
// untraced, with times scaled to the reference machine speed (SpeedFactor
// in common.h); with --trace 1 they are the per-layer set, from a run that
// replays each op through single layers (and writes a Chrome trace). Every
// run also writes its full record under DIR/results, with the end-to-end
// metrics both scaled and as measured. A wrong answer is printed and makes
// the exit code non-zero.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workloads.h"

#ifndef RELBENCH_BUILD_TYPE
#define RELBENCH_BUILD_TYPE "unknown"
#endif

namespace relbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (EndToEnd computes them);
// BENCHMARK.json lists the same names with their direction and bound.
const char* const kEndToEnd[] = {"setup_s",     "ops_per_s", "read_p50_ms",
                                 "read_p95_ms", "op_p50_ms", "op_p95_ms",
                                 "peak_rss_mb"};

// Per-layer metrics of BENCHMARK.json. A layer a workload never reaches
// reads 0.
const MetricDef kPerLayer[] = {
    {"core.engine.ctor_ms", "ms"},
    {"core.engine.define_ms", "ms"},
    {"core.engine.insert_ms", "ms"},
    {"storage.store.attach_ms", "ms"},
    {"core.session.query_ms", "ms"},
    {"core.session.exec_ms", "ms"},
    {"core.session.refresh_ms", "ms"},
    {"core.parser.parse_ms", "ms"},
    {"core.parser.parse_share", "ratio"},
    {"core.analysis.extend_ms", "ms"},
    {"core.analysis.extend_share", "ratio"},
    {"core.lowering.lower_ms", "ms"},
    {"core.lowering.lower_share", "ratio"},
    {"core.lowering.lowered", "count"},
    {"core.lowering.rejected", "count"},
    {"core.lowering.spliced_tuples", "count"},
    {"datalog.eval.eval_ms", "ms"},
    {"datalog.eval.eval_share", "ratio"},
    {"datalog.eval.iterations", "count"},
    {"datalog.eval.tuples_derived", "count"},
    {"datalog.eval.index_probes", "count"},
    {"datalog.eval.index_builds", "count"},
    {"core.interp.residual_ms", "ms"},
    {"core.interp.residual_share", "ratio"},
    {"core.extent_cache.hit_ratio", "ratio"},
    {"core.extent_cache.maintained", "count"},
    {"core.extent_cache.restamped", "count"},
    {"core.extent_cache.dropped", "count"},
    {"datalog.delta.inserts", "count"},
    {"datalog.delta.deletes", "count"},
    {"datalog.delta.rederived", "count"},
    {"datalog.delta.tuples_derived", "count"},
    {"core.commit.ic_checked", "count"},
    {"core.commit.ic_skipped", "count"},
    {"core.commit.aborts", "count"},
    {"storage.wal.append_ms", "ms"},
    {"storage.wal.append_share", "ratio"},
    {"storage.wal.bytes_per_commit", "B"},
    {"server.protocol.handle_ms", "ms"},
    {"server.tcp.rtt_ms", "ms"},
    {"server.tcp.overhead_ms", "ms"},
    {"server.tcp.overhead_share", "ratio"},
    {"data.output_tuples", "count"},
};

const char* const kWorkloads[] = {"analytics", "orders", "reach_serve",
                                  "reach_update"};

[[noreturn]] void Refuse(const std::string& why) {
  std::fprintf(stderr, "relbench: refusing to run: %s\n", why.c_str());
  std::exit(2);
}

void Usage() {
  std::fprintf(stderr,
               "usage: relbench --workload {analytics|orders|reach_serve|"
               "reach_update} --seed N --seconds S --trace 0|1 [--out DIR]\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage();
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0) || opt.seconds > 120) Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage();
      opt.trace = value == "1";
    } else if (flag == "--out") {
      opt.out_dir = value;
    } else {
      Usage();
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known |= opt.workload == w;
  if (!known) Usage();
  return opt;
}

/// Timing numbers from an unoptimised or instrumented build, or with the
/// evaluator's thread count forced from the environment, describe some
/// other program.
void CheckBuild() {
#if !defined(__OPTIMIZE__)
  Refuse("built without optimisation (build type " RELBENCH_BUILD_TYPE ")");
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  Refuse("built with a sanitizer");
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                   \
    __has_feature(undefined_behavior_sanitizer)
  Refuse("built with a sanitizer");
#endif
#endif
  if (std::getenv("REL_EVAL_THREADS") != nullptr) {
    Refuse("REL_EVAL_THREADS is set");
  }
}

double LoadAverage() {
  double load[1] = {0};
  return getloadavg(load, 1) == 1 ? load[0] : -1;
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Latency samples by class ("read", "write", "fresh", "setup", and "op"
/// for every whole op) and by template, each scaled by the machine-speed
/// factor around it when `normalize`.
struct Grouped {
  std::map<std::string, std::vector<double>> by_class, by_template;
};

Grouped Group(const RunContext& ctx, bool normalize) {
  std::vector<ReferenceSample> reference = ctx.reference;
  std::sort(reference.begin(), reference.end(),
            [](const ReferenceSample& a, const ReferenceSample& b) {
              return a.at < b.at;
            });
  Grouped g;
  for (const LatencySample& s : ctx.latencies) {
    const double ms = normalize ? s.ms * SpeedFactor(reference, s.at) : s.ms;
    const std::string& tmpl = ctx.names[s.tmpl];
    g.by_class[ctx.names[s.cls]].push_back(ms);
    if (!tmpl.empty()) {
      g.by_class["op"].push_back(ms);
      g.by_template[tmpl].push_back(ms);
    }
  }
  return g;
}

/// Median of all reference samples of the run, in ms.
double MedianReferenceMs(const RunContext& ctx) {
  std::vector<double> ms;
  for (const ReferenceSample& s : ctx.reference) ms.push_back(s.ms);
  return Percentile(ms, 0.5);
}

double Sum(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return sum;
}

/// End-to-end metrics: the BENCHMARK.json set, then the class metrics a
/// workload has only when it runs that op class (write, fresh), and the
/// failure share. With `normalize`, times are at the reference machine
/// speed (see SpeedFactor), and throughput is scaled by the ops' own
/// slowdown: their time as measured over their time at reference speed.
Metrics EndToEnd(const RunContext& ctx, bool normalize) {
  const Grouped g = Group(ctx, normalize);
  const std::vector<double> none;
  auto samples = [&](const char* cls) -> const std::vector<double>& {
    auto it = g.by_class.find(cls);
    return it == g.by_class.end() ? none : it->second;
  };
  Metrics out;
  auto add = [&](const std::string& name, double v, const char* unit) {
    out.push_back({name, {v, unit}});
  };
  double ops_per_s = ctx.timed_s > 0 ? samples("op").size() / ctx.timed_s : 0;
  if (normalize && !samples("op").empty()) {
    ops_per_s *= Sum(Group(ctx, false).by_class.at("op")) / Sum(samples("op"));
  }
  add("setup_s", Percentile(samples("setup"), 0.5) / 1e3, "s");
  add("ops_per_s", ops_per_s, "ops/s");
  add("read_p50_ms", Percentile(samples("read"), 0.5), "ms");
  add("read_p95_ms", Percentile(samples("read"), 0.95), "ms");
  add("op_p50_ms", Percentile(samples("op"), 0.5), "ms");
  add("op_p95_ms", Percentile(samples("op"), 0.95), "ms");
  add("peak_rss_mb", ctx.peak_rss_mb, "MB");
  for (const char* cls : {"write", "fresh"}) {
    if (!samples(cls).empty()) {
      add(std::string(cls) + "_p50_ms", Percentile(samples(cls), 0.5), "ms");
      add(std::string(cls) + "_p95_ms", Percentile(samples(cls), 0.95), "ms");
    }
  }
  add("fail_frac",
      ctx.attempted ? static_cast<double>(ctx.failed) / ctx.attempted : 0,
      "ratio");
  return out;
}

std::string ShareName(const std::string& ms_name) {
  return ms_name.substr(0, ms_name.size() - 3) + "_share";
}

/// Per-layer aggregates over `ops`: each timing's p50 over the ops that
/// measured it and its share of those ops' end-to-end time; each counter
/// per op; the cache hit ratio and WAL bytes per commit from their sums.
std::map<std::string, double> Aggregate(const std::vector<const OpRecord*>& ops) {
  std::map<std::string, std::vector<double>> ms;
  std::map<std::string, double> ms_sum, op_sum, counts;
  for (const OpRecord* op : ops) {
    for (const auto& [name, v] : op->ms) {
      ms[name].push_back(v);
      ms_sum[name] += v;
      op_sum[name] += op->op_ms;
    }
    for (const auto& [name, v] : op->counts) counts[name] += v;
  }
  std::map<std::string, double> out;
  for (const auto& [name, v] : ms) {
    out[name] = Percentile(v, 0.5);
    if (op_sum[name] > 0) out[ShareName(name)] = ms_sum[name] / op_sum[name];
  }
  const double n = static_cast<double>(ops.size());
  for (const auto& [name, v] : counts) out[name] = n > 0 ? v / n : 0;
  const double lookups =
      counts["core.extent_cache.hits"] + counts["core.extent_cache.misses"];
  out["core.extent_cache.lookups"] = n > 0 ? lookups / n : 0;
  out["core.extent_cache.hit_ratio"] =
      lookups > 0 ? counts["core.extent_cache.hits"] / lookups : 0;
  if (counts["core.commit.commits"] > 0) {
    out["storage.wal.bytes_per_commit"] =
        counts["storage.wal.bytes"] / counts["core.commit.commits"];
  }
  out["ops"] = n;
  return out;
}

/// Workload-wide aggregates (key "all") and one set per template.
std::map<std::string, std::map<std::string, double>> Layers(
    const RunContext& ctx) {
  std::map<std::string, std::map<std::string, double>> out;
  std::vector<const OpRecord*> all;
  std::map<std::string, std::vector<const OpRecord*>> by_template;
  for (const OpRecord& op : ctx.ops) {
    all.push_back(&op);
    by_template[op.tmpl].push_back(&op);
  }
  out["all"] = Aggregate(all);
  for (const auto& [name, samples] : ctx.setup_ms) {
    out["all"][name] = Percentile(samples, 0.5);
  }
  for (const auto& [tmpl, ops] : by_template) out[tmpl] = Aggregate(ops);
  return out;
}

std::string FormatValue(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

void PrintLayerTable(
    std::FILE* out,
    const std::map<std::string, std::map<std::string, double>>& layers) {
  std::vector<std::string> cols = {"all"};
  for (const auto& [tmpl, v] : layers) {
    if (tmpl != "all") cols.push_back(tmpl);
  }
  std::set<std::string> rows;
  for (const auto& [tmpl, v] : layers) {
    for (const auto& [name, x] : v) rows.insert(name);
  }
  std::fprintf(out, "%-32s", "per-layer (p50 ms / share / per op)");
  for (const std::string& c : cols) std::fprintf(out, " %16s", c.c_str());
  std::fprintf(out, "\n");
  for (const std::string& r : rows) {
    std::fprintf(out, "%-32s", r.c_str());
    for (const std::string& c : cols) {
      auto it = layers.at(c).find(r);
      std::fprintf(out, " %16s",
                   it == layers.at(c).end() ? "-" : FormatValue(it->second).c_str());
    }
    std::fprintf(out, "\n");
  }
}

std::string MetricsJson(const Metrics& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    out += (i ? ", " : "") + JsonString(m[i].first) + ": {\"value\": " +
           JsonNumber(m[i].second.first) +
           ", \"unit\": " + JsonString(m[i].second.second) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  Options opt = ParseArgs(argc, argv);
  CheckBuild();
  for (const char* sub : {"results", "traces", "stores"}) {
    std::filesystem::create_directories(opt.out_dir + "/" + sub);
  }
  const double load_start = LoadAverage();
  const double started_at =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  Tracer tracer(opt.trace);
  RunContext ctx;
  ctx.trace = opt.trace;
  ctx.tracer = &tracer;
  // Room for 5000 ops/s, far above any workload's rate.
  ctx.latencies.reserve(static_cast<size_t>(opt.seconds * 5000) + 1000);

  if (opt.workload == "analytics") RunAnalytics(opt, &ctx);
  if (opt.workload == "orders") RunOrders(opt, &ctx);
  if (opt.workload == "reach_serve") RunReachServe(opt, &ctx);
  if (opt.workload == "reach_update") RunReachUpdate(opt, &ctx);
  ctx.peak_rss_mb = PeakRssMb();  // before the results are assembled
  const double load_end = LoadAverage();

  const Metrics e2e = EndToEnd(ctx, /*normalize=*/true);
  const Metrics raw = EndToEnd(ctx, /*normalize=*/false);
  const Grouped grouped = Group(ctx, /*normalize=*/true);
  const auto layers =
      opt.trace ? Layers(ctx)
                : std::map<std::string, std::map<std::string, double>>{};
  const bool correct = ctx.failed == 0;

  std::printf("relbench %s seed=%llu seconds=%g trace=%d: %llu ops, %llu failed\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0,
              static_cast<unsigned long long>(ctx.attempted),
              static_cast<unsigned long long>(ctx.failed));
  for (const std::string& f : ctx.failures) std::printf("  WRONG: %s\n", f.c_str());
  for (const auto& [cls, samples] : grouped.by_class) {
    std::printf("  samples %-6s %zu\n", cls.c_str(), samples.size());
  }
  std::printf("  reference kernel median %.4g ms (%zu samples)\n",
              MedianReferenceMs(ctx), ctx.reference.size());
  std::printf("  %-14s %14s %14s\n", "metric", "at ref speed", "as measured");
  for (size_t i = 0; i < e2e.size(); ++i) {
    std::printf("  %-14s %14.6g %14.6g %s\n", e2e[i].first.c_str(),
                e2e[i].second.first, raw[i].second.first,
                e2e[i].second.second.c_str());
  }
  if (opt.trace) PrintLayerTable(stdout, layers);

  // The full record: provenance, every end-to-end metric, per-layer tables.
  const std::string tag = opt.workload + "-s" + std::to_string(opt.seed) +
                          "-t" + (opt.trace ? "1" : "0") + "-" +
                          std::to_string(std::time(nullptr)) + "-" +
                          std::to_string(getpid());
  std::string record = "{\"workload\": " + JsonString(opt.workload) +
                       ", \"seed\": " + std::to_string(opt.seed) +
                       ", \"seconds\": " + JsonNumber(opt.seconds) +
                       ", \"trace\": " + (opt.trace ? "true" : "false") +
                       ", \"started_at\": " + JsonNumber(started_at);
  record += ", \"provenance\": {\"git_sha\": " +
            JsonString(EnvOr("RELBENCH_GIT_SHA", "unknown")) +
            ", \"source_digest\": " +
            JsonString(EnvOr("RELBENCH_SOURCE_DIGEST", "unknown")) +
            ", \"build_type\": " + JsonString(RELBENCH_BUILD_TYPE) +
            ", \"compiler\": " + JsonString(Compiler()) +
            ", \"cpu\": " + JsonString(CpuModel()) +
            ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
            ", \"loadavg_start\": " + JsonNumber(load_start) +
            ", \"loadavg_end\": " + JsonNumber(load_end) +
            ", \"store_fs\": " + JsonString(ctx.store_fs) +
            ", \"reference_ms\": " + JsonNumber(MedianReferenceMs(ctx)) +
            ", \"reference_samples\": " + std::to_string(ctx.reference.size()) +
            "}";
  record += ", \"correct\": " + std::string(correct ? "true" : "false") +
            ", \"attempted\": " + std::to_string(ctx.attempted) +
            ", \"failed\": " + std::to_string(ctx.failed) + ", \"failures\": [";
  for (size_t i = 0; i < ctx.failures.size(); ++i) {
    record += (i ? ", " : "") + JsonString(ctx.failures[i]);
  }
  record += "], \"samples\": {";
  size_t i = 0;
  for (const auto& [cls, samples] : grouped.by_class) {
    record += (i++ ? ", " : "") + JsonString(cls) + ": " +
              std::to_string(samples.size());
  }
  record += "}, \"ops_by_template\": {";
  i = 0;
  for (const auto& [tmpl, n] : ctx.ops_by_template) {
    record += (i++ ? ", " : "") + JsonString(tmpl) + ": " + std::to_string(n);
  }
  record += "}, \"template_ms\": {";
  i = 0;
  for (const auto& [tmpl, samples] : grouped.by_template) {
    record += (i++ ? ", " : "") + JsonString(tmpl) +
              ": {\"p50\": " + JsonNumber(Percentile(samples, 0.5)) +
              ", \"p95\": " + JsonNumber(Percentile(samples, 0.95)) + "}";
  }
  record += "}, \"metrics\": " + MetricsJson(e2e) +
            ", \"raw_metrics\": " + MetricsJson(raw) + ", \"layers\": {";
  i = 0;
  for (const auto& [tmpl, values] : layers) {
    record += (i++ ? ", " : "") + JsonString(tmpl) + ": {";
    size_t j = 0;
    for (const auto& [name, v] : values) {
      record += (j++ ? ", " : "") + JsonString(name) + ": " + JsonNumber(v);
    }
    record += "}";
  }
  record += "}}\n";
  std::ofstream(opt.out_dir + "/results/" + tag + ".json") << record;
  if (opt.trace) {
    tracer.Write(opt.out_dir + "/traces/" + tag + ".json");
    std::FILE* table =
        std::fopen((opt.out_dir + "/traces/" + tag + "-layers.txt").c_str(), "w");
    if (table != nullptr) {
      PrintLayerTable(table, layers);
      std::fclose(table);
    }
  }

  // The result line: exactly the BENCHMARK.json metric set of this mode.
  Metrics line;
  if (opt.trace) {
    for (const MetricDef& m : kPerLayer) {
      const auto& all = layers.at("all");
      auto it = all.find(m.name);
      line.push_back({m.name, {it == all.end() ? 0.0 : it->second, m.unit}});
    }
  } else {
    for (const char* wanted : kEndToEnd) {
      for (const auto& [name, v] : e2e) {
        if (name == wanted) line.push_back({name, v});
      }
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(ctx.attempted),
              static_cast<unsigned long long>(ctx.failed),
              MetricsJson(line).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace relbench

int main(int argc, char** argv) {
  try {
    return relbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "relbench: %s\n", e.what());
    return 1;
  }
}
